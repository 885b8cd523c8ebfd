package fleet

// Journal merging (DESIGN.md §12): folding the records of worker
// journals into the canonical coordinator journal so a distributed run
// resumes from the union of everything any process made durable.
//
// The merge policy is the journal's replay policy extended across
// files:
//
//   - within one source, the LAST record per (sweep, cell) wins — the
//     same rule ScanJournal-based replay applies to a single journal;
//   - a success already in the destination is never superseded: cell
//     results are seed-determined, so two successes for one cell are
//     byte-identical and the first is as good as any;
//   - an incoming success supersedes a destination failure (it is the
//     retry that worked, wherever it ran);
//   - an incoming failure lands only when the destination knows nothing
//     about the cell — it never downgrades a success, and a cell both
//     sides saw fail keeps the destination's record.
//
// Merged records go through the same append path as live ones (same
// framing and CRC, durable by the next barrier) and enter the in-memory
// replay state, so a run started after Merge replays merged cells
// exactly like its own journaled ones.

// MergeStats summarizes one Merge call.
type MergeStats struct {
	// Applied counts records appended for cells the destination had no
	// state for.
	Applied int
	// Superseded counts destination failures replaced by an incoming
	// success.
	Superseded int
	// Skipped counts incoming records that lost to existing state
	// (duplicate successes, failures for already-resolved cells).
	Skipped int
}

// Total returns how many distinct cells the merge considered.
func (s MergeStats) Total() int { return s.Applied + s.Superseded + s.Skipped }

// Merge folds scanned records (typically a worker journal's — use
// ScanJournal, or another journal's SnapshotRecords) into j under the
// policy above. Non-cell records (meta) are ignored. The first append
// error aborts the merge; everything already appended stays in the
// journal and is idempotent to re-merge.
func (j *Journal) Merge(recs []JournalRecord) (MergeStats, error) {
	// Fold the source: last record per key wins, append order follows
	// first appearance so the merged journal is deterministic in the
	// source's record order.
	last := make(map[cellKey]int, len(recs))
	var order []cellKey
	for idx, rec := range recs {
		if rec.Kind != recCell && rec.Kind != recFail {
			continue
		}
		key := cellKey{rec.Sweep, rec.Cell}
		if _, seen := last[key]; !seen {
			order = append(order, key)
		}
		last[key] = idx
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	var st MergeStats
	for _, key := range order {
		rec := recs[last[key]]
		if _, ok := j.replay[key]; ok {
			st.Skipped++ // destination success always stands
			continue
		}
		_, wasFailed := j.failed[key]
		switch rec.Kind {
		case recCell:
			if err := j.appendCellLocked(key, rec.Data); err != nil {
				return st, err
			}
			if wasFailed {
				st.Superseded++
			} else {
				st.Applied++
			}
		case recFail:
			if wasFailed {
				st.Skipped++ // both failed; keep the destination's record
				continue
			}
			if err := j.appendFailLocked(key, failInfo{rec.Label, rec.Class, rec.Error}); err != nil {
				return st, err
			}
			st.Applied++
		}
	}
	return st, nil
}
