#include "core/run_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace wanmc::core {

std::optional<ProtocolKind> protocolFromName(const std::string& name) {
  for (const ProtocolInfo& p : kProtocols)
    if (name == p.key) return p.kind;
  return std::nullopt;
}

std::optional<exec::Backend> backendFromName(const std::string& name) {
  if (name == "sim") return exec::Backend::kSim;
  if (name == "threaded") return exec::Backend::kThreaded;
  return std::nullopt;
}

namespace {

long long intOrDie(const std::string& s, const char* flag) {
  size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(s, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (s.empty() || used != s.size()) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", flag, s.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

bool RunOptions::consumeFlag(const std::string& arg,
                             const std::function<std::string()>& next) {
  if (arg == "--backend") {
    const std::string v = next();
    const auto b = backendFromName(v);
    if (!b) {
      std::fprintf(stderr, "--backend: unknown backend '%s' (sim|threaded)\n",
                   v.c_str());
      std::exit(2);
    }
    backend = *b;
  } else if (arg == "--protocol") {
    const std::string v = next();
    const auto p = protocolFromName(v);
    if (!p) {
      std::fprintf(stderr, "--protocol: unknown protocol '%s'\n", v.c_str());
      std::exit(2);
    }
    protocol = *p;
  } else if (arg == "--groups") {
    groups = static_cast<int>(intOrDie(next(), "--groups"));
  } else if (arg == "--procs") {
    procsPerGroup = static_cast<int>(intOrDie(next(), "--procs"));
  } else if (arg == "--seed") {
    seed = static_cast<uint64_t>(intOrDie(next(), "--seed"));
  } else if (arg == "--dest-groups") {
    destGroups = static_cast<int>(intOrDie(next(), "--dest-groups"));
  } else if (arg == "--inter-ms") {
    const SimTime v = intOrDie(next(), "--inter-ms") * kMs;
    latency.interMin = latency.interMax = v;
  } else if (arg == "--intra-us") {
    const SimTime v = intOrDie(next(), "--intra-us");
    latency.intraMin = latency.intraMax = v;
  } else if (arg == "--batch-window") {
    batchWindow = intOrDie(next(), "--batch-window") * kMs;
  } else if (arg == "--batch-max") {
    batchMaxSize = static_cast<int>(intOrDie(next(), "--batch-max"));
  } else if (arg == "--loss") {
    lossRate = std::atof(next().c_str());
  } else if (arg == "--reliable-channels") {
    reliableChannels = true;
  } else {
    return false;
  }
  return true;
}

void RunOptions::validate() const {
  std::ostringstream os;
  if (groups <= 0 || procsPerGroup <= 0) {
    os << "RunOptions: topology " << groups << "x" << procsPerGroup
       << " needs positive group and process counts";
    throw std::invalid_argument(os.str());
  }
  if (destGroups <= 0 || destGroups > groups) {
    os << "RunOptions: dest-groups " << destGroups << " outside [1, "
       << groups << "]";
    throw std::invalid_argument(os.str());
  }
  if (!(lossRate >= 0.0 && lossRate < 1.0)) {
    os << "RunOptions: loss rate " << lossRate
       << " outside [0, 1) - a lossless link needs 0, a dead one a cut";
    throw std::invalid_argument(os.str());
  }
  if (batchWindow < 0 || batchMaxSize < 0) {
    os << "RunOptions: batch window " << batchWindow << "us / max size "
       << batchMaxSize << " must be non-negative";
    throw std::invalid_argument(os.str());
  }
  latency.validate();
}

std::string RunOptions::serialize() const {
  std::ostringstream os;
  os << "backend=" << exec::backendName(backend)
     << " protocol=" << protocolInfo(protocol).key << " groups=" << groups
     << " procs=" << procsPerGroup << " seed=" << seed
     << " intra=" << latency.intraMin << ":" << latency.intraMax
     << " inter=" << latency.interMin << ":" << latency.interMax
     << " batch-window=" << batchWindow << " batch-max=" << batchMaxSize
     << " loss=" << lossRate
     << " channels=" << (reliableChannels ? 1 : 0)
     << " dest-groups=" << destGroups;
  return os.str();
}

RunConfig RunOptions::toRunConfig() const {
  validate();
  RunConfig cfg;
  cfg.backend = backend;
  cfg.protocol = protocol;
  cfg.groups = groups;
  cfg.procsPerGroup = procsPerGroup;
  cfg.seed = seed;
  cfg.latency = latency;
  cfg.stack.batchWindow = batchWindow;
  cfg.stack.batchMaxSize = batchMaxSize;
  cfg.stack.reliableChannels = reliableChannels;
  cfg.lossRate = lossRate;
  return cfg;
}

const char* RunOptions::flagHelp() {
  return "[--backend sim|threaded] [--protocol P] [--groups N] [--procs D] "
         "[--seed S] [--dest-groups G] [--inter-ms L] [--intra-us U] "
         "[--batch-window MS] [--batch-max N] [--loss P] "
         "[--reliable-channels]";
}

}  // namespace wanmc::core
