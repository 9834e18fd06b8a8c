#include "workload/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace wanmc::workload {

const char* modelName(Model m) {
  switch (m) {
    case Model::kClosedLoop: return "closed-loop";
    case Model::kOpenLoopFixed: return "open-fixed";
    case Model::kOpenLoopPoisson: return "open-poisson";
    case Model::kBursty: return "bursty";
    case Model::kTraceReplay: return "trace";
  }
  return "?";
}

double Spec::nominalRatePerSec() const {
  auto inverse = [](SimTime gap) {
    return gap > 0 ? 1e6 / static_cast<double>(gap) : 0.0;
  };
  switch (model) {
    case Model::kClosedLoop:
      return inverse(interval);
    case Model::kOpenLoopFixed:
    case Model::kOpenLoopPoisson:
      return inverse(meanGap);
    case Model::kBursty: {
      // Mean over a whole on+off cycle: onDuration/burstGap casts per
      // (onDuration + offDuration).
      const double perCycle = static_cast<double>(
          std::max<SimTime>(onDuration / std::max<SimTime>(burstGap, 1), 1));
      const SimTime cycle = std::max<SimTime>(onDuration + offDuration, 1);
      return perCycle * 1e6 / static_cast<double>(cycle);
    }
    case Model::kTraceReplay: {
      if (trace.size() < 2) return 0;
      SimTime lo = trace.front().when;
      SimTime hi = trace.front().when;
      for (const TraceCast& c : trace) {
        lo = std::min(lo, c.when);
        hi = std::max(hi, c.when);
      }
      if (hi <= lo) return 0;
      return static_cast<double>(trace.size() - 1) * 1e6 /
             static_cast<double>(hi - lo);
    }
  }
  return 0;
}

SimTime Spec::nominalEnd() const {
  switch (model) {
    case Model::kClosedLoop:
      // A capped loop can stall behind deliveries; leave WAN-scale slack
      // per cast on top of the nominal spacing.
      return start + static_cast<SimTime>(count) *
                         (interval + (inFlightCap > 0 ? kSec : 0));
    case Model::kOpenLoopFixed:
      return start + static_cast<SimTime>(count) * meanGap;
    case Model::kOpenLoopPoisson:
      // Mean end + generous tail: exponential gaps rarely sum to more
      // than a few means beyond the expectation.
      return start + 4 * static_cast<SimTime>(count) * meanGap;
    case Model::kBursty: {
      const SimTime perBurst = std::max<SimTime>(onDuration / std::max<SimTime>(burstGap, 1), 1);
      const SimTime cycles = (count + perBurst - 1) / perBurst;
      return start + cycles * (onDuration + offDuration);
    }
    case Model::kTraceReplay: {
      SimTime last = start;
      for (const TraceCast& c : trace) last = std::max(last, c.when);
      return last;
    }
  }
  return start;
}

std::string toString(const Spec& s) {
  std::ostringstream os;
  os << modelName(s.model) << " start=" << s.start << " count=" << s.count
     << " dest=" << s.destGroups << " seed=" << s.seed;
  if (s.senderZipf != 0.0) os << " szipf=" << s.senderZipf;
  if (s.destZipf != 0.0) os << " dzipf=" << s.destZipf;
  switch (s.model) {
    case Model::kClosedLoop:
      os << " interval=" << s.interval;
      if (s.inFlightCap > 0) os << " cap=" << s.inFlightCap;
      break;
    case Model::kOpenLoopFixed:
    case Model::kOpenLoopPoisson:
      os << " mean=" << s.meanGap;
      break;
    case Model::kBursty:
      os << " on=" << s.onDuration << " off=" << s.offDuration
         << " gap=" << s.burstGap;
      break;
    case Model::kTraceReplay:
      for (const TraceCast& c : s.trace)
        os << " cast=" << c.when << ":" << c.sender << ":" << c.dest.bits();
      break;
  }
  return os.str();
}

namespace {

std::optional<Model> parseModel(const std::string& name) {
  for (Model m : {Model::kClosedLoop, Model::kOpenLoopFixed,
                  Model::kOpenLoopPoisson, Model::kBursty,
                  Model::kTraceReplay})
    if (name == modelName(m)) return m;
  return std::nullopt;
}

// Strict integer parse of the whole string (empty or trailing junk fails).
bool parseI64(const std::string& v, int64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(v.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool parseU64(const std::string& v, uint64_t* out) {
  if (v.empty() || v[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(v.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool parseF64(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// Whether `model` reads `key`. The shared knobs apply to every model;
// each other key belongs to the model family that reads it.
bool reads(Model model, const std::string& key) {
  if (key == "interval" || key == "cap") return model == Model::kClosedLoop;
  if (key == "mean")
    return model == Model::kOpenLoopFixed || model == Model::kOpenLoopPoisson;
  if (key == "on" || key == "off" || key == "gap")
    return model == Model::kBursty;
  if (key == "cast") return model == Model::kTraceReplay;
  return true;
}

// "when:sender:destbits" -> TraceCast.
bool parseTraceCast(const std::string& v, TraceCast* out) {
  const size_t c1 = v.find(':');
  const size_t c2 = v.find(':', c1 == std::string::npos ? c1 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return false;
  int64_t when = 0;
  int64_t sender = 0;
  uint64_t bits = 0;
  if (!parseI64(v.substr(0, c1), &when)) return false;
  if (!parseI64(v.substr(c1 + 1, c2 - c1 - 1), &sender)) return false;
  if (!parseU64(v.substr(c2 + 1), &bits)) return false;
  out->when = when;
  out->sender = static_cast<ProcessId>(sender);
  out->dest = GroupSet(bits);
  return true;
}

}  // namespace

std::optional<Spec> parse(const std::string& text) {
  std::istringstream is(text);
  std::string tok;
  if (!(is >> tok)) return std::nullopt;
  const auto model = parseModel(tok);
  if (!model) return std::nullopt;

  Spec s;
  s.model = *model;
  while (is >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (!reads(s.model, key)) return std::nullopt;
    int64_t i = 0;
    uint64_t u = 0;
    double f = 0;
    if (key == "start" && parseI64(val, &i)) s.start = i;
    else if (key == "count" && parseI64(val, &i)) s.count = static_cast<int>(i);
    else if (key == "dest" && parseI64(val, &i)) s.destGroups = static_cast<int>(i);
    else if (key == "seed" && parseU64(val, &u)) s.seed = u;
    else if (key == "szipf" && parseF64(val, &f)) s.senderZipf = f;
    else if (key == "dzipf" && parseF64(val, &f)) s.destZipf = f;
    else if (key == "interval" && parseI64(val, &i)) s.interval = i;
    else if (key == "cap" && parseI64(val, &i)) s.inFlightCap = static_cast<int>(i);
    else if (key == "mean" && parseI64(val, &i)) s.meanGap = i;
    else if (key == "on" && parseI64(val, &i)) s.onDuration = i;
    else if (key == "off" && parseI64(val, &i)) s.offDuration = i;
    else if (key == "gap" && parseI64(val, &i)) s.burstGap = i;
    else if (key == "cast") {
      TraceCast c;
      if (!parseTraceCast(val, &c)) return std::nullopt;
      s.trace.push_back(c);
    } else {
      return std::nullopt;
    }
  }
  if (s.model == Model::kTraceReplay)
    s.count = static_cast<int>(s.trace.size());
  return s;
}

}  // namespace wanmc::workload
