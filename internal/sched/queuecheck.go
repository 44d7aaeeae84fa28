package sched

import "fmt"

// This file holds the waiting-request invariant checks behind
// Engine.CheckQueue.  They recompute everything from scratch and
// allocate, so only the chaos harnesses call them.

// checkQueue walks every waiter list: each indexed object has waiters,
// numbering its pin count, in arrival order; no station waits twice;
// the index is ordered by head arrival; the lists sum to the queued
// count; and coldQueued is the pin sum over not-ready objects.
func (t *stripedTech) checkQueue(pinned []int32) error {
	seen := make([]bool, len(t.wNext))
	indexed := make([]bool, len(t.wTail))
	total := 0
	for i, h := range t.waitIdx {
		obj := h.obj
		if indexed[obj] {
			return fmt.Errorf("object %d indexed twice", obj)
		}
		indexed[obj] = true
		tail := t.wTail[obj]
		if tail < 0 {
			return fmt.Errorf("object %d indexed without waiters", obj)
		}
		if want := t.head(obj); h != want {
			return fmt.Errorf("object %d indexed as %+v, its list heads with %+v", obj, h, want)
		}
		if i > 0 && !seqBefore(t.waitIdx[i-1].seq, h.seq) {
			return fmt.Errorf("index out of head-arrival order at position %d (object %d)", i, obj)
		}
		n := int32(0)
		for s := t.wNext[tail]; ; s = t.wNext[s] {
			if seen[s] {
				return fmt.Errorf("station %d queued twice (object %d)", s, obj)
			}
			seen[s] = true
			if n > 0 && !seqBefore(t.wSeq[t.wNext[tail]], t.wSeq[s]) {
				return fmt.Errorf("object %d: waiter %d out of arrival order", obj, s)
			}
			n++
			if s == tail {
				break
			}
		}
		if n != pinned[obj] {
			return fmt.Errorf("object %d: %d waiters, pin count %d", obj, n, pinned[obj])
		}
		total += int(n)
	}
	cold := 0
	for obj, tail := range t.wTail {
		if !indexed[obj] && (tail >= 0 || pinned[obj] != 0) {
			return fmt.Errorf("object %d not indexed: tail %d, pin count %d", obj, tail, pinned[obj])
		}
		if !t.ready[obj] {
			cold += int(pinned[obj])
		}
	}
	if total != t.nQueued {
		return fmt.Errorf("lists hold %d waiters, queued count %d", total, t.nQueued)
	}
	if cold != t.coldQueued {
		return fmt.Errorf("coldQueued %d, pin sum over not-ready objects %d", t.coldQueued, cold)
	}
	return nil
}

// checkQueue counts the arrival-order queue against the pin counts.
func (t *vdrTech) checkQueue(pinned []int32) error {
	count := make([]int32, len(pinned))
	seen := make(map[int]bool, len(t.queue))
	for _, r := range t.queue {
		if seen[r.station] {
			return fmt.Errorf("station %d queued twice", r.station)
		}
		seen[r.station] = true
		count[r.object]++
	}
	for obj, n := range count {
		if n != pinned[obj] {
			return fmt.Errorf("object %d: %d queued, pin count %d", obj, n, pinned[obj])
		}
	}
	return nil
}
