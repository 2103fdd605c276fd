#include "exec/merge.h"

namespace stratica {

LoserTreeMerger::LoserTreeMerger(std::vector<std::unique_ptr<MergeInput>> inputs,
                                 std::vector<SortKey> keys)
    : keys_(std::move(keys)),
      k_(inputs.size()),
      // Two-way merges compare each row once; a direct typed compare beats
      // paying the per-block key build there. From k=3 up, memcmp'd keys win.
      use_normalized_keys_(k_ > 2) {
  cursors_.resize(k_);
  for (size_t i = 0; i < k_; ++i) cursors_[i].input = std::move(inputs[i]);
}

Status LoserTreeMerger::Refill(size_t c) {
  Cursor& cur = cursors_[c];
  cur.block.Clear();
  STRATICA_RETURN_NOT_OK(cur.input->NextBlock(&cur.block));
  cur.block.DecodeAll();
  cur.pos = 0;
  if (cur.block.NumRows() == 0) {
    cur.exhausted = true;
    cur.keys = NormalizedKeys();
    return Status::OK();
  }
  if (use_normalized_keys_) BuildNormalizedKeys(cur.block, keys_, &cur.keys);
  return Status::OK();
}

bool LoserTreeMerger::RowBeats(size_t a, size_t row, size_t b) const {
  const Cursor& ca = cursors_[a];
  const Cursor& cb = cursors_[b];
  if (ca.exhausted) return false;
  if (cb.exhausted) return true;
  int c = use_normalized_keys_
              ? ca.keys.CompareWith(row, cb.keys, cb.pos)
              : CompareRowsDirected(ca.block, row, cb.block, cb.pos, keys_);
  if (c != 0) return c < 0;
  return a < b;  // lower input index wins ties (stable merge)
}

bool LoserTreeMerger::LeafBeats(size_t a, size_t b) const {
  return RowBeats(a, cursors_[a].pos, b);
}

size_t LoserTreeMerger::InitNode(size_t node) {
  if (node >= k_) return node - k_;  // leaf: node ids [k, 2k) map to cursors
  size_t a = InitNode(2 * node);
  size_t b = InitNode(2 * node + 1);
  if (LeafBeats(a, b)) {
    tree_[node] = b;
    return a;
  }
  tree_[node] = a;
  return b;
}

Status LoserTreeMerger::Init() {
  for (size_t i = 0; i < k_; ++i) {
    Cursor& cur = cursors_[i];
    STRATICA_RETURN_NOT_OK(cur.input->NextBlock(&cur.block));
    cur.block.DecodeAll();
    if (cur.block.NumRows() == 0) {
      cur.exhausted = true;
    } else if (use_normalized_keys_) {
      BuildNormalizedKeys(cur.block, keys_, &cur.keys);
    }
  }
  tree_.assign(k_ == 0 ? 1 : k_, 0);
  if (k_ > 1) tree_[0] = InitNode(1);
  return Status::OK();
}

void LoserTreeMerger::Replay(size_t leaf) {
  size_t winner = leaf;
  for (size_t node = (leaf + k_) >> 1; node >= 1; node >>= 1) {
    if (LeafBeats(tree_[node], winner)) std::swap(winner, tree_[node]);
    if (node == 1) break;
  }
  tree_[0] = winner;
}

bool LoserTreeMerger::Done() const {
  if (k_ == 0) return true;
  return cursors_[tree_[0]].exhausted;
}

size_t LoserTreeMerger::EmitRows(size_t leaf, size_t take_end, RowBlock* out) {
  Cursor& cur = cursors_[leaf];
  size_t count = take_end - cur.pos;
  for (size_t c = 0; c < out->columns.size(); ++c) {
    out->columns[c].AppendRange(cur.block.columns[c], cur.pos, count);
  }
  cur.pos = take_end;
  return count;
}

Status LoserTreeMerger::Next(RowBlock* out, size_t max_rows) {
  size_t appended = 0;
  if (k_ == 2) {
    // Two-way merges (mergeout's minimum fan-in, ROS+WOS scans) skip the
    // tree: the run-extension comparison already decides the next winner,
    // so each advance costs one key comparison instead of two.
    while (appended < max_rows) {
      size_t w = tree_[0];
      Cursor& cw = cursors_[w];
      if (cw.exhausted) break;
      size_t o = 1 - w;
      size_t limit = cw.pos + (max_rows - appended);
      if (limit > cw.block.NumRows()) limit = cw.block.NumRows();
      size_t take_end;
      if (cursors_[o].exhausted) {
        take_end = limit;
      } else {
        // The winner invariant covers the current row (Init/previous
        // iteration compared it), so each extension step is the one
        // comparison its row needed anyway.
        take_end = cw.pos + 1;
        while (take_end < limit && RowBeats(w, take_end, o)) ++take_end;
      }
      appended += EmitRows(w, take_end, out);
      if (cw.pos >= cw.block.NumRows()) {
        STRATICA_RETURN_NOT_OK(Refill(w));
        tree_[0] = LeafBeats(0, 1) ? 0 : 1;
        tree_[1] = 1 - tree_[0];
      } else if (take_end < limit) {
        // Stopped because `o` beats the winner's next row: roles swap with
        // no extra comparison.
        tree_[0] = o;
        tree_[1] = w;
      } else {
        // Stopped at the batch boundary (max_rows), not on a lost
        // comparison: the winner's next row is unverified, so re-establish
        // the invariant before the next Next() call trusts it.
        tree_[0] = LeafBeats(0, 1) ? 0 : 1;
        tree_[1] = 1 - tree_[0];
      }
    }
    return Status::OK();
  }
  while (appended < max_rows) {
    if (k_ == 0) break;
    size_t w = tree_[0];
    Cursor& cw = cursors_[w];
    if (cw.exhausted) break;

    size_t limit = cw.pos + (max_rows - appended);
    if (limit > cw.block.NumRows()) limit = cw.block.NumRows();
    size_t take_end = cw.pos + 1;
    if (k_ == 1) {
      take_end = limit;
    } else if (streak_ >= kStreakForExtension && streak_leaf_ == w) {
      // Run extension, engaged once the same leaf keeps winning (sorted
      // stretches: disjoint-range mergeout inputs, clustered runs): every
      // consecutive winner row that still beats the runner-up — the best
      // loser on this leaf's root path — is emitted in one ranged copy.
      // Short interleaved runs never pay for the challenger scan.
      size_t challenger = SIZE_MAX;
      for (size_t node = (w + k_) >> 1; node >= 1; node >>= 1) {
        size_t l = tree_[node];
        if (challenger == SIZE_MAX || LeafBeats(l, challenger)) challenger = l;
        if (node == 1) break;
      }
      if (cursors_[challenger].exhausted) {
        take_end = limit;
      } else {
        while (take_end < limit && RowBeats(w, take_end, challenger)) ++take_end;
      }
    }

    appended += EmitRows(w, take_end, out);
    if (cw.pos >= cw.block.NumRows()) STRATICA_RETURN_NOT_OK(Refill(w));
    if (k_ > 1) {
      Replay(w);
      if (tree_[0] == streak_leaf_) {
        ++streak_;
      } else {
        streak_leaf_ = tree_[0];
        streak_ = 1;
      }
    }
  }
  return Status::OK();
}

}  // namespace stratica
