// Per-process tables keyed by a message id or a consensus instance. Most
// grow for the whole run; one working table, A1's pending messages, is
// shrunk by erase, which frees a page once its last id goes. Both key
// spaces are dense (core::Experiment numbers messages from 1, the CastIndex
// contract; a group's consensus instances follow its clock), so an id is
// not hashed: its high bits pick a page, found in a directory ordered by
// page number or, for the page of the last insert, at once. A lone far id
// costs one page. Iteration is ascending, and a page never moves, so
// neither does a value stored in it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace wanmc {

// A map from id to T. A page holds a word marking the slots in use and 64
// default-constructed slots, or fewer so that it stays near 512 bytes: a
// table may hold one id (Rodrigues98 runs a consensus per message).
template <class T>
class IdTable {
  static constexpr uint64_t kSlots =
      std::bit_floor(std::clamp<size_t>(512 / sizeof(T), 2, 64));

 public:
  // The value stored under id, or null. Reads the shortcut, never moves it.
  [[nodiscard]] const T* find(uint64_t id) const {
    const uint64_t no = id / kSlots;
    const Page* p = last_;
    if (no != lastNo_) {
      auto it = lowerBound(no);
      p = it != pages_.end() && it->no == no ? it->page.get() : nullptr;
    }
    if (p == nullptr || (p->used >> (id % kSlots) & 1) == 0) return nullptr;
    return &p->slots[id % kSlots];
  }
  // The value under id, and whether this call added it (as T{}).
  std::pair<T&, bool> tryEmplace(uint64_t id) {
    const uint64_t no = id / kSlots;
    if (no != lastNo_) {
      auto it = lowerBound(no);
      if (it == pages_.end() || it->no != no)
        it = pages_.insert(it, Entry{no, std::make_unique<Page>()});
      last_ = it->page.get();
      lastNo_ = no;
    }
    const bool added = (last_->used >> (id % kSlots) & 1) == 0;
    last_->used |= uint64_t{1} << (id % kSlots);
    return {last_->slots[id % kSlots], added};
  }
  // Drops the value under id, if any, leaving T{} in its slot. The page
  // goes once its last id does; no other value moves.
  void erase(uint64_t id) {
    const auto it = lowerBound(id / kSlots);
    if (it == pages_.end() || it->no != id / kSlots) return;
    Page& p = *it->page;
    const uint64_t bit = uint64_t{1} << (id % kSlots);
    if ((p.used & bit) == 0) return;
    p.used &= ~bit;
    p.slots[id % kSlots] = T{};
    if (p.used != 0) return;
    if (last_ == &p) {
      last_ = nullptr;
      lastNo_ = UINT64_MAX;
    }
    pages_.erase(it);
  }
  // fn(id, value) for every id stored, ascending.
  template <class Fn>
  void forEach(Fn&& fn) const {
    for (const Entry& e : pages_)
      for (uint64_t b = e.page->used; b != 0; b &= b - 1)
        fn(e.no * kSlots + std::countr_zero(b),
           e.page->slots[std::countr_zero(b)]);
  }
  [[nodiscard]] size_t pages() const { return pages_.size(); }

 private:
  struct Page {
    uint64_t used = 0;
    std::array<T, kSlots> slots{};
  };
  struct Entry {
    uint64_t no;  // id / kSlots
    std::unique_ptr<Page> page;
  };
  [[nodiscard]] auto lowerBound(uint64_t no) const {
    return std::lower_bound(
        pages_.begin(), pages_.end(), no,
        [](const Entry& e, uint64_t n) { return e.no < n; });
  }
  std::vector<Entry> pages_;
  Page* last_ = nullptr;
  uint64_t lastNo_ = UINT64_MAX;  // no page has this number: kSlots > 1
};

// A set of ids, one bit each: a table of 64-bit words, 64 to a page, so a
// page holds 4,096 ids in 520 bytes.
class IdSet {
 public:
  void insert(uint64_t id) {
    words_.tryEmplace(id >> 6).first |= uint64_t{1} << (id & 63);
  }
  [[nodiscard]] bool contains(uint64_t id) const {
    const uint64_t* w = words_.find(id >> 6);
    return w != nullptr && (*w >> (id & 63) & 1) != 0;
  }
  // fn(id) for every id in the set, ascending.
  template <class Fn>
  void forEach(Fn&& fn) const {
    words_.forEach([&](uint64_t w, uint64_t bits) {
      for (; bits != 0; bits &= bits - 1) fn(w << 6 | std::countr_zero(bits));
    });
  }
  [[nodiscard]] size_t pages() const { return words_.pages(); }

 private:
  IdTable<uint64_t> words_;  // id >> 6 -> the bits of ids 64w .. 64w + 63
};

}  // namespace wanmc
