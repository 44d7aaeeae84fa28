package sched

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/vdisk"
)

// streamRef addresses one fragment stream of a display inside an
// event bucket: the display's arena slot and the stream index.
type streamRef struct {
	slot int32
	i    int32
}

// stripedTech is the striping family's Technique: simple striping
// (k = M) and staggered striping (any k) share it, differing only in
// the configured stride and in whether Algorithms 1 and 2 are
// enabled.  Occupancy is tracked in virtual-disk space: physical disk
// f at interval t corresponds to virtual disk (f − K·t) mod D, and a
// display's streams own fixed virtual disks for the duration of their
// reads, so bookkeeping is O(1) per stream per transition rather than
// per interval.
//
// All per-interval work is event-driven: stream releases and display
// completions live in interval-keyed buckets (like wakeups), the
// farm-busy integral is maintained incrementally at every
// acquire/release site, and only displays that still have a stream to
// coalesce are visited by Algorithm 2.  An interval in which nothing
// happens costs O(1), independent of D, the number of active
// displays, and the queue length.
//
// Display state is a struct-of-arrays arena (DESIGN.md §11): a display
// is an int32 slot into parallel slices (dStation, dObject, …) and a
// fixed-stride stream arena (sVdisk, sT), not a heap object.  At 20k
// stations that removes per-display allocation and pointer chasing
// from the hot path, and lets event buckets and the occupancy table
// hold 4-byte slots instead of 8-byte pointers.  Slots of contiguous
// (tmax = 0) displays are recycled LIFO after completion; fragmented
// and aborted displays keep their slots, exactly as the old pool kept
// their heap objects, because stale ring entries may still address
// them.
type stripedTech struct {
	eng    *Engine
	cfg    Config
	layout core.Layout
	store  *core.Store

	vbusy    []int32  // virtual disk -> owner display slot, matOwner, or freeSlot
	freeBits []uint64 // bitset of free virtual disks, maintained with vbusy
	busy     int      // count of non-free virtual disks, maintained incrementally
	rot      int      // (K·now) mod D, cached once per interval for vdiskOf

	// Display arena.  Slot s's stream i lives at s·stride+i in the
	// stream arena; stride is the maximum degree of declustering.
	dStation  []int32
	dObject   []int32
	dFirst    []int32 // disk of the object's fragment (0,0)
	dTau0     []int32 // admission interval
	dTmax     []int32
	dSeq      []int32 // admission sequence, monotone across slot reuse
	dM        []int32 // stream count (the object's degree)
	dDone     []bool  // delivery completed or aborted
	dDeg      []int32 // consecutive degraded intervals
	dDegAt    []int32 // last degraded interval, -2 = never
	sVdisk    []int32 // stream -> serving virtual disk, -1 released
	sT        []int32 // stream -> alignment delay T_i
	stride    int
	minDegree int // smallest degree any object needs; admit's farm-full gate

	nextSeq  int32
	active   int     // displays currently in delivery
	byObject []int32 // object -> active display count

	ready []bool // object resident and fully materialized

	// Waiting requests (DESIGN.md §11): one FIFO waiter list per
	// object, intrusive over per-station columns (a station has at most
	// one outstanding request), plus the index of objects that have
	// waiters, ordered by their head waiter's arrival sequence.  The
	// admission scan walks objects, not requests.
	wNext    []int32    // station -> next waiter of the same object; the lists are circular
	wSeq     []uint32   // station -> arrival sequence, compared wrap-safely (seqBefore)
	wArrived []int32    // station -> arrival interval
	wTail    []int32    // object -> its last waiter (whose wNext is the head), -1 = none
	waitIdx  []waitHead // objects with waiters, ascending head sequence
	nQueued  int
	pushSeq  uint32

	// coldQueued counts queued requests whose object is not ready —
	// the sum of pin counts over not-ready objects, maintained at
	// every push and readiness flip.  Together with the farm-full
	// check it gates the admission scan: when it is zero and the farm
	// cannot fit even the smallest object, every waiter would stay
	// where it is, so admit skips (or stops) the walk.
	coldQueued int

	// Degraded-mode state, allocated only when a fault plan is set.
	playEpoch []int32 // object -> maskEpoch its playability was memoized at
	playOK    []bool  // memoized playability under the current mask

	// Admission scratch (reused every interval).
	cursors []waitCursor // later waiters still able to change the outcome, a min-heap by sequence
	moved   []waitHead   // objects whose head waiter left the queue this scan
	rejects []request    // unplayable waiters, refused in arrival order after the scan

	// Event rings: what fires at a given interval, indexed by
	// interval mod the ring length.  Every event is scheduled at most
	// horizon-1 intervals ahead (one display length plus the maximum
	// startup delay), so slots never collide; slice backings are
	// reused after each firing.  Entries may be stale (a coalescing
	// move reschedules a release); consumers re-validate against the
	// display's current state.
	horizon     int
	releases    [][]streamRef // stream releases due, by interval mod horizon
	completions [][]int32     // delivery ends (display slots), by interval mod horizon
	coalescing  []int32       // displays with a stream still to coalesce
	pool        []int32       // recycled contiguous display slots

	// Reusable scratch buffers (hot path, zero steady-state allocs).
	vidScratch  []int
	tsScratch   []int
	zeroTs      []int
	freeScratch []int
	candScratch []int

	// Tertiary state.
	matObject    int // object being staged, -1 when idle
	matStarted   bool
	matRemaining int
	matVdisks    []int
	matRetries   int  // failed Place attempts for the pending staging
	matNextTry   int  // backoff: no Place attempt before this interval
	matPressured bool // the eviction-pressure fallback already fired
}

const (
	freeSlot int32 = -1
	matOwner int32 = -2
)

// bind allocates the striped technique's state and preloads the farm.
func (t *stripedTech) bind(e *Engine) error {
	cfg := e.cfg
	layout, err := core.NewLayout(cfg.D, cfg.K)
	if err != nil {
		return err
	}
	st, err := core.NewStore(layout, cfg.CapacityFragments)
	if err != nil {
		return err
	}
	maxDegree, minDegree := cfg.M, cfg.M
	for id := 0; id < cfg.Objects; id++ {
		m := cfg.Degree(id)
		if m > maxDegree {
			maxDegree = m
		}
		if m < minDegree {
			minDegree = m
		}
	}
	// Every release and completion is scheduled at most one display
	// length plus the maximum startup delay ahead, so a ring of that
	// horizon never sees two intervals share a slot.
	maxStartup := cfg.MaxStartup
	if maxStartup == 0 {
		maxStartup = 2 * maxDegree
	}
	horizon := cfg.Subobjects + maxStartup + 2
	t.eng = e
	t.cfg = cfg
	t.layout = layout
	t.store = st
	t.vbusy = make([]int32, cfg.D)
	t.freeBits = make([]uint64, (cfg.D+63)/64)
	for i := range t.freeBits {
		t.freeBits[i] = ^uint64(0)
	}
	if r := cfg.D & 63; r != 0 {
		t.freeBits[len(t.freeBits)-1] = 1<<uint(r) - 1
	}
	t.byObject = make([]int32, cfg.Objects)
	t.ready = make([]bool, cfg.Objects)
	t.wNext = make([]int32, cfg.Stations)
	t.wSeq = make([]uint32, cfg.Stations)
	t.wArrived = make([]int32, cfg.Stations)
	t.wTail = make([]int32, cfg.Objects)
	for i := range t.wTail {
		t.wTail[i] = -1
	}
	if e.faultEvents != nil {
		t.playEpoch = make([]int32, cfg.Objects)
		t.playOK = make([]bool, cfg.Objects)
		for i := range t.playEpoch {
			t.playEpoch[i] = -1
		}
	}
	t.horizon = horizon
	t.releases = make([][]streamRef, horizon)
	t.completions = make([][]int32, horizon)
	t.stride = maxDegree
	t.minDegree = minDegree
	t.vidScratch = make([]int, maxDegree)
	t.tsScratch = make([]int, maxDegree)
	t.zeroTs = make([]int, maxDegree)
	t.matObject = -1
	for i := range t.vbusy {
		t.vbusy[i] = freeSlot
	}
	preload := cfg.PreloadTop
	if preload == 0 {
		preload = cfg.DefaultPreload()
	}
	// Best-effort fill: with strides whose footprints have ramps
	// (k < M and short objects) the farm cannot always be packed to
	// the last fragment, so preloading stops at the first object that
	// no longer fits — exactly what on-demand materialization would
	// have produced.  Objects arrive in popularity (non-ascending id)
	// order.  A cluster driver overrides the set outright
	// (PreloadObjects) to spread replicas across member servers by
	// Zipf rank.
	ids := cfg.PreloadObjects
	if ids == nil {
		ids = e.gen.TopObjects(preload)
	}
	placed := t.store.Preload(ids, cfg.Degree, cfg.Subobjects, cfg.Objects)
	for _, id := range ids[:placed] {
		t.ready[id] = true
	}
	return nil
}

func (t *stripedTech) name() string { return StripingTechniqueName(t.cfg) }

// setReady flips an object's readiness and keeps coldQueued — the
// admission scan's materialization-wait gate — in sync with the
// object's pin count (the number of its queued requests).
func (t *stripedTech) setReady(obj int, ready bool) {
	if t.ready[obj] == ready {
		return
	}
	if ready {
		t.coldQueued -= int(t.eng.pinned[obj])
	} else {
		t.coldQueued += int(t.eng.pinned[obj])
	}
	t.ready[obj] = ready
}

// interval runs one interval of striping policy: claim endings,
// tertiary progress, admissions, then Algorithm 2 coalescing when
// enabled; it returns the busy-disk count for the utilization
// integral.
func (t *stripedTech) interval() int {
	e := t.eng
	t.rot = (t.cfg.K * e.now) % t.cfg.D
	if e.phaseLabels {
		return t.intervalLabeled()
	}
	if e.faultActive() {
		t.degradedScan()
	}
	t.finishDue()
	t.stepTertiary()
	t.admit()
	if t.cfg.Coalescing {
		t.coalesce()
	}
	return t.busy
}

// intervalLabeled is interval with each phase wrapped in a pprof
// label, taken only while a CPU profile is being collected.
func (t *stripedTech) intervalLabeled() int {
	if t.eng.faultActive() {
		t.degradedScan()
	}
	labeled("finishDue", t.finishDue)
	labeled("tertiary", t.stepTertiary)
	labeled("admit", t.admit)
	if t.cfg.Coalescing {
		labeled("coalesce", t.coalesce)
	}
	return t.busy
}

func (t *stripedTech) activeDisplays() int { return t.active }

// onFault reconciles technique state with an effective fault
// transition.  Disk up/down flips need no immediate work here: the
// per-interval degradedScan handles in-flight displays, and the
// admission playability memo is keyed by the engine's mask epoch, so
// it self-invalidates.  A tertiary outage abandons staging work.
func (t *stripedTech) onFault(ev fault.Event) {
	switch ev.Kind {
	case fault.TertiaryFail:
		if t.matObject >= 0 {
			t.abortStaging()
		}
	}
}

// degradedScan visits every faulted physical disk once per interval
// and degrades whatever is reading or writing it right now: displays
// ride out up to the hiccup limit of consecutive degraded intervals
// on a DOWN disk before aborting (a slow disk only inflates the
// hiccup count), and a materialization writing to a down disk is
// abandoned.  The scan iterates the engine's sorted faulted-disk
// active set — ascending disk order, the same order the old full
// walk visited — so its cost is O(faulted disks), not O(D).
func (t *stripedTech) degradedScan() {
	e := t.eng
	for _, f32 := range e.faultedDisks {
		f := int(f32)
		down, _ := e.diskFaulted(f)
		v := t.vdiskOf(f)
		owner := t.vbusy[v]
		if owner == freeSlot {
			continue
		}
		if owner == matOwner {
			if down {
				t.abortStaging()
			}
			continue
		}
		d := owner
		if t.dDone[d] {
			continue
		}
		if int(t.dDegAt[d]) == e.now {
			continue // two faulted streams in one interval count once
		}
		if int(t.dDegAt[d]) != e.now-1 {
			t.dDeg[d] = 0 // the previous degraded run ended; resync
		}
		t.dDegAt[d] = int32(e.now)
		t.dDeg[d]++
		e.degHiccups++
		if down && int(t.dDeg[d]) > e.hiccupLimit {
			t.abortDisplay(d)
		}
	}
}

// abortDisplay kills an in-flight display: all stream claims release
// immediately, pending ring entries go stale (consumers revalidate),
// and the station rejoins the closed loop through the abort path.
// The slot is never pooled — stale refs may still address it.
func (t *stripedTech) abortDisplay(d int32) {
	base := int(d) * t.stride
	for i := 0; i < int(t.dM[d]); i++ {
		if v := t.sVdisk[base+i]; v >= 0 {
			t.setVBusy(int(v), freeSlot)
			t.sVdisk[base+i] = -1
		}
	}
	t.dDone[d] = true
	t.active--
	t.byObject[t.dObject[d]]--
	t.eng.countAbort(int(t.dStation[d]), int(t.dObject[d]))
}

// killActive implements the whole-server kill (DESIGN.md §14): the
// staging aborts first (its batched followers re-queue, and the engine
// drains the queue right after), then every in-flight display aborts
// through the same typed path a disk fault uses.  Pooled slots have
// dDone set, so the arena walk naturally skips them.  After the walk
// every virtual disk is free; the engine drains the waiters next.
func (t *stripedTech) killActive() {
	if t.matObject >= 0 {
		t.abortStaging()
	}
	for d := int32(0); d < int32(len(t.dDone)); d++ {
		if !t.dDone[d] {
			t.abortDisplay(d)
		}
	}
	t.coalescing = t.coalescing[:0]
}

// onRevive needs no ring surgery: every event scheduled before the
// kill is stale in a self-validating way (aborted streams have
// sVdisk −1 and aborted displays have dDone set, and both consumers
// revalidate), so entries left in skipped slots are dropped the next
// time their slot comes around.
func (t *stripedTech) onRevive() {}

// adoptObject places a copy of id for the replica-healing pass without
// consuming tertiary time — the cluster layer's per-window budget is
// the bandwidth model.  It declines objects already held, being
// staged, or pending on the device.
func (t *stripedTech) adoptObject(id int) bool {
	if t.ready[id] || t.store.Resident(id) || id == t.matObject || t.eng.tman.Pending(id) {
		return false
	}
	if !t.tryPlace(id) {
		return false
	}
	t.setReady(id, true)
	t.eng.emit(EvMatEnd, id, -1, "healed")
	return true
}

// abortStaging abandons the pending or in-flight materialization: the
// write claims release, a partially written object is evicted rather
// than published, and the device request is dropped (stations still
// wanting the object re-request it on their next admission scan).
func (t *stripedTech) abortStaging() {
	t.eng.cacheStagingAborted(t.matObject)
	for _, v := range t.matVdisks {
		t.setVBusy(v, freeSlot)
	}
	t.matVdisks = t.matVdisks[:0]
	if t.matStarted && t.store.Resident(t.matObject) {
		t.setReady(t.matObject, false)
		t.eng.emit(EvEvict, t.matObject, -1, "staging aborted")
		_ = t.store.Evict(t.matObject)
	}
	t.matObject = -1
	t.matStarted = false
	t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
	t.eng.tman.Abort()
}

// playable reports whether an object's resident layout avoids every
// down disk for the full duration of a display.  Memoized per mask
// epoch: the answer only changes when a disk fails or is repaired, or
// when the object is re-placed (which resets its memo slot).
func (t *stripedTech) playable(obj int) bool {
	e := t.eng
	if e.faultEvents == nil || e.downCount == 0 {
		return true
	}
	if t.playEpoch[obj] == int32(e.maskEpoch) {
		return t.playOK[obj]
	}
	ok := true
	if p, resident := t.store.Placement(obj); resident {
		ok = !t.footprintHitsDown(p.First, t.degree(obj))
	}
	t.playEpoch[obj] = int32(e.maskEpoch)
	t.playOK[obj] = ok
	return ok
}

// footprintHitsDown reports whether the stride orbit of a placement —
// the physical disks its M-disk read window visits over a display —
// includes a down disk.  The orbit repeats after D/gcd(K, D) steps,
// so the walk is bounded by that cycle.
func (t *stripedTech) footprintHitsDown(first, m int) bool {
	e := t.eng
	d := t.cfg.D
	cycle := d / gcd(t.cfg.K, d)
	if n := t.cfg.Subobjects; n < cycle {
		cycle = n
	}
	for step := 0; step < cycle; step++ {
		base := first + t.cfg.K*step
		for j := 0; j < m; j++ {
			if e.diskDown[(base+j)%d] {
				return true
			}
		}
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (t *stripedTech) uniqueResidents() int { return t.store.ResidentCount() }

func (t *stripedTech) holdsObject(id int) bool { return t.ready[id] }

// vdiskOf maps physical disk f at the current interval to its global
// virtual disk, (f − K·now) mod D.  The rotation (K·now) mod D is
// cached once per interval, so the map is a subtraction and one
// conditional wrap instead of a full modulo chain.
func (t *stripedTech) vdiskOf(f int) int {
	v := f - t.rot
	if v < 0 {
		v += t.cfg.D
	}
	return v
}

// physicalOf is the inverse map: virtual disk v to the physical disk
// serving it this interval.
func (t *stripedTech) physicalOf(v int) int {
	f := v + t.rot
	if f >= t.cfg.D {
		f -= t.cfg.D
	}
	return f
}

// setVBusy transfers ownership of virtual disk v and maintains the
// farm-busy counter and the free bitset — the incremental replacement
// for the per-interval O(D) occupancy scan.  The owner is a display
// slot (or matOwner / freeSlot), so the degraded scan can walk from a
// faulted physical disk straight to the display it hurts.
func (t *stripedTech) setVBusy(v int, owner int32) {
	if (t.vbusy[v] == freeSlot) != (owner == freeSlot) {
		if owner == freeSlot {
			t.busy--
			t.freeBits[v>>6] |= 1 << uint(v&63)
		} else {
			t.busy++
			t.freeBits[v>>6] &^= 1 << uint(v&63)
		}
	}
	t.vbusy[v] = owner
}

// allocSlot returns a display slot: a recycled contiguous slot when
// one is pooled, a fresh arena extension otherwise.
func (t *stripedTech) allocSlot() int32 {
	if k := len(t.pool); k > 0 {
		s := t.pool[k-1]
		t.pool = t.pool[:k-1]
		return s
	}
	t.dStation = append(t.dStation, 0)
	t.dObject = append(t.dObject, 0)
	t.dFirst = append(t.dFirst, 0)
	t.dTau0 = append(t.dTau0, 0)
	t.dTmax = append(t.dTmax, 0)
	t.dSeq = append(t.dSeq, 0)
	t.dM = append(t.dM, 0)
	t.dDone = append(t.dDone, false)
	t.dDeg = append(t.dDeg, 0)
	t.dDegAt = append(t.dDegAt, -2)
	for i := 0; i < t.stride; i++ {
		t.sVdisk = append(t.sVdisk, -1)
		t.sT = append(t.sT, 0)
	}
	return int32(len(t.dStation) - 1)
}

// sortReleases restores (display, stream) admission order in one
// release bucket.  Coalescing reschedules releases out of admission
// order; hiccup accounting must match a full in-order scan, so the
// bucket is re-sorted before applying.  Insertion sort: buckets are
// tiny and already sorted unless a coalescing fired.  Keyed by the
// admission sequence, not the slot — slots recycle.
func sortReleases(refs []streamRef, dSeq []int32) {
	for a := 1; a < len(refs); a++ {
		for b := a; b > 0 && (dSeq[refs[b].slot] < dSeq[refs[b-1].slot] ||
			(dSeq[refs[b].slot] == dSeq[refs[b-1].slot] && refs[b].i < refs[b-1].i)); b-- {
			refs[b], refs[b-1] = refs[b-1], refs[b]
		}
	}
}

// applyRelease frees the disk of one due stream release, revalidating
// against the display's current state (entries go stale when a
// coalescing move rescheduled the stream or a fault aborted the
// display).
func (t *stripedTech) applyRelease(ref streamRef) {
	e := t.eng
	d := ref.slot
	si := int(d)*t.stride + int(ref.i)
	v := t.sVdisk[si]
	if v < 0 || e.now != int(t.dTau0[d])+int(t.sT[si])+t.cfg.Subobjects {
		return // stale: already released or rescheduled
	}
	if t.vbusy[v] != d {
		e.hiccups++
	}
	t.setVBusy(int(v), freeSlot)
	t.sVdisk[si] = -1 // released
}

// applyCompletion settles one due display completion, appending the
// station to reissue; aborted displays were settled by the abort path.
func (t *stripedTech) applyCompletion(d int32, reissue []int) []int {
	e := t.eng
	if t.dDone[d] {
		return reissue // aborted by a fault; the abort path settled it
	}
	t.dDone[d] = true
	t.active--
	e.completed++
	e.completedTotal++
	e.emit(EvComplete, int(t.dObject[d]), int(t.dStation[d]), "")
	t.byObject[t.dObject[d]]--
	e.stn.Complete(int(t.dStation[d]))
	reissue = append(reissue, int(t.dStation[d]))
	// Contiguous displays are unreachable once completed (all
	// release refs fired earlier this interval or before, and
	// they never join the coalescing list) — recycle the slot.
	if t.dTmax[d] == 0 {
		t.pool = append(t.pool, d)
	}
	return reissue
}

// finishDue releases stream disks whose reads end this interval and
// completes displays whose delivery has ended; completed stations
// immediately reissue (zero think time).  Both are bucket lookups:
// only the streams and displays that actually fire now are touched.
func (t *stripedTech) finishDue() {
	e := t.eng
	slot := e.now % t.horizon
	if refs := t.releases[slot]; len(refs) > 0 {
		t.releases[slot] = refs[:0]
		sortReleases(refs, t.dSeq)
		for _, ref := range refs {
			t.applyRelease(ref)
		}
	}
	if ds := t.completions[slot]; len(ds) > 0 {
		t.completions[slot] = ds[:0]
		reissue := e.reissueBuf[:0]
		for _, d := range ds {
			reissue = t.applyCompletion(d, reissue)
		}
		for _, s := range reissue {
			e.reissue(s)
		}
		e.reissueBuf = reissue[:0]
	}
}

// stepTertiary advances the materialization pipeline.
func (t *stripedTech) stepTertiary() {
	e := t.eng
	if t.matObject >= 0 && t.matStarted {
		e.tertBusy++
		t.matRemaining--
		if t.matRemaining == 0 {
			t.finishMaterialization()
		}
		return
	}
	if e.tertDown {
		return // device offline: no new staging starts
	}
	if t.matObject < 0 {
		id, ok := e.tman.StartNext()
		if !ok {
			return
		}
		t.matObject = id
		t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
	}
	// Stage the pending object: secure space, then disks.
	obj := t.matObject
	if !t.store.Resident(obj) {
		if e.now < t.matNextTry {
			return // backing off after a failed Place
		}
		if !t.tryPlace(obj) {
			t.placeFailed(obj)
			return
		}
		t.matRetries, t.matNextTry = 0, 0
	}
	p, _ := t.store.Placement(obj)
	w := t.cfg.Tertiary.DisksOccupied(t.cfg.BDisk)
	if w > t.degree(obj) {
		w = t.degree(obj)
	}
	vids := t.vidScratch[:w]
	for j := 0; j < w; j++ {
		v := t.vdiskOf((p.First + j) % t.cfg.D)
		if t.vbusy[v] != freeSlot {
			return // write disks busy; retry next interval
		}
		vids[j] = v
	}
	for _, v := range vids {
		t.setVBusy(v, matOwner)
	}
	t.matVdisks = append(t.matVdisks[:0], vids...)
	t.matStarted = true
	t.matRemaining = t.cfg.MaterializeIntervalsOf(obj)
	if e.tracer != nil {
		e.emit(EvMatStart, obj, -1, fmt.Sprintf("%d intervals", t.matRemaining+1))
	}
	e.tertBusy++ // the starting interval counts as busy
	t.matRemaining--
	if t.matRemaining == 0 {
		t.finishMaterialization()
	}
}

// tryPlace secures space (evicting cold residents as needed) and a
// contiguous start for obj — the legacy staging step, factored out so
// the bounded-retry path can reuse it after eviction pressure.
func (t *stripedTech) tryPlace(obj int) bool {
	if !t.makeRoom(obj) {
		return false
	}
	if _, err := t.store.Place(obj, t.degree(obj), t.cfg.Subobjects); err != nil {
		return false
	}
	if t.playEpoch != nil {
		t.playEpoch[obj] = -1 // re-placed: the playability memo is stale
	}
	return true
}

// placeFailed handles one failed Place attempt.  With the legacy
// unlimited-retry configuration (PlaceRetryLimit 0) it just leaves
// the staging pending for the next interval — the DESIGN.md §9
// livelock.  With a cap it backs off exponentially, fires the
// one-shot eviction-pressure fallback at the limit when enabled, and
// finally abandons the staging as starved so the run fails loudly
// instead of delivering a silent zero-display sweep.
func (t *stripedTech) placeFailed(obj int) {
	e := t.eng
	limit := t.cfg.PlaceRetryLimit
	if limit == 0 {
		return // retry next interval, forever
	}
	t.matRetries++
	if t.matRetries >= limit {
		if t.cfg.EvictionPressure && !t.matPressured {
			// Last resort before starving: evict every replaceable
			// resident, trading catalog variety for a defragmented
			// farm, and try once more.
			t.matPressured = true
			t.pressureEvict()
			if t.tryPlace(obj) {
				t.matRetries, t.matNextTry = 0, 0
				return
			}
		}
		e.countStarved(obj)
		t.matObject = -1
		t.matRetries, t.matNextTry, t.matPressured = 0, 0, false
		e.tman.Abort()
		return
	}
	// Exponential backoff, capped at 16 intervals: the farm only
	// changes when displays end or evictions fire, so hammering Place
	// every interval buys nothing.
	shift := t.matRetries
	if shift > 4 {
		shift = 4
	}
	t.matNextTry = e.now + 1<<shift
}

// pressureEvict evicts every currently replaceable resident — beyond
// the strict byte need makeRoom stops at — so a fragmented exact-fit
// farm gets one defragmented chance before a staging starves.
func (t *stripedTech) pressureEvict() {
	e := t.eng
	victims := append(t.candScratch[:0], t.store.ResidentIDs()...)
	for _, id := range victims {
		if !t.evictable(id) {
			continue
		}
		t.setReady(id, false)
		e.emit(EvEvict, id, -1, "pressure")
		if err := t.store.Evict(id); err != nil {
			e.hiccups++
		}
	}
	t.candScratch = victims[:0]
}

// finishMaterialization publishes the staged object and frees the
// write disks and the device.
func (t *stripedTech) finishMaterialization() {
	e := t.eng
	e.emit(EvMatEnd, t.matObject, -1, "")
	t.setReady(t.matObject, true)
	for _, v := range t.matVdisks {
		t.setVBusy(v, freeSlot)
	}
	t.matVdisks = t.matVdisks[:0]
	t.matObject = -1
	t.matStarted = false
	if _, err := e.tman.Finish(); err != nil {
		e.hiccups++
	}
	e.materialized++
}

// makeRoom evicts least-frequently-accessed evictable objects until
// the farm has space for obj.  It reports whether enough space exists.
// The candidate set is built once per call and shrunk incrementally as
// victims go — nothing that happens inside this loop changes any other
// object's evictability.
func (t *stripedTech) makeRoom(obj int) bool {
	e := t.eng
	need := t.degree(obj) * t.cfg.Subobjects
	if t.store.FreeFragments() >= need {
		return true
	}
	candidates := t.candScratch[:0]
	for _, id := range t.store.ResidentIDs() {
		if t.evictable(id) {
			candidates = append(candidates, id)
		}
	}
	defer func() { t.candScratch = candidates[:0] }()
	for t.store.FreeFragments() < need {
		victim, ok := e.lfu.Victim(candidates)
		if !ok {
			return false
		}
		for i, id := range candidates {
			if id == victim {
				candidates = append(candidates[:i], candidates[i+1:]...)
				break
			}
		}
		t.setReady(victim, false)
		e.emit(EvEvict, victim, -1, "")
		if err := t.store.Evict(victim); err != nil {
			e.hiccups++
			return false
		}
	}
	return true
}

// evictable reports whether object id may be replaced: resident,
// fully materialized, not being displayed, and not referenced by a
// queued request.
func (t *stripedTech) evictable(id int) bool {
	return t.ready[id] && t.byObject[id] == 0 && t.eng.pinned[id] == 0 && id != t.matObject
}

// fragmentedAttemptsPerInterval bounds how many queued requests may
// run the (O(free disks × M)) Algorithm-1 search in one interval.
const fragmentedAttemptsPerInterval = 8

// cmpSeq orders two arrival sequences wrap-safely: a station has at
// most one request outstanding, so live sequences span far less than
// 2^31 and their difference fits an int32.
func cmpSeq(a, b uint32) int { return int(int32(a - b)) }

func seqBefore(a, b uint32) bool { return cmpSeq(a, b) < 0 }

// waitHead is one entry of the object index: an object with waiters,
// its head waiter s and that waiter's arrival sequence, kept inline so
// the walk reads the index sequentially and touches the per-station
// columns only for waiters that leave the queue.
type waitHead struct {
	seq uint32
	obj int32
	s   int32
}

// waitCursor addresses one waiter during the admission walk: station s
// waiting for obj, whose predecessor in the circular list is prev, or
// -1 for a head (its predecessor is the tail, looked up when needed).
type waitCursor struct {
	waitHead
	prev int32
}

// Outcomes of one waiter's admission attempt.
const (
	waitKept = iota
	waitAdmitted
	waitRejected
)

// push appends a reference to its object's waiter list.  An object
// gaining its first waiter joins the end of the index, which keeps the
// index sorted: no waiter already queued arrived later.
func (t *stripedTech) push(r request) {
	s, obj := int32(r.station), r.object
	t.wSeq[s] = t.pushSeq
	t.pushSeq++
	t.wArrived[s] = int32(r.arrived)
	if tail := t.wTail[obj]; tail < 0 {
		t.wNext[s] = s
		t.waitIdx = append(t.waitIdx, waitHead{seq: t.wSeq[s], obj: int32(obj), s: s})
	} else {
		t.wNext[s] = t.wNext[tail]
		t.wNext[tail] = s
	}
	t.wTail[obj] = s
	t.nQueued++
	if !t.ready[obj] {
		t.coldQueued++
	}
}

func (t *stripedTech) queued() int { return t.nQueued }

// head returns obj's index entry, built from its waiter list.
func (t *stripedTech) head(obj int32) waitHead {
	s := t.wNext[t.wTail[obj]]
	return waitHead{seq: t.wSeq[s], obj: obj, s: s}
}

// degree is Config.Degree without copying the Config on the hot path.
func (t *stripedTech) degree(obj int) int {
	if t.cfg.Degrees != nil {
		return t.cfg.Degrees[obj]
	}
	return t.cfg.M
}

// unlink removes waiter s, whose predecessor is prev, from obj's list.
func (t *stripedTech) unlink(obj int, prev, s int32) {
	if prev == s {
		t.wTail[obj] = -1
	} else {
		t.wNext[prev] = t.wNext[s]
		if t.wTail[obj] == s {
			t.wTail[obj] = prev
		}
	}
	t.nQueued--
}

// drainQueue empties every waiter list, returning the waiters in
// arrival order.
func (t *stripedTech) drainQueue() []request {
	dst := make([]request, 0, t.nQueued)
	for _, h := range t.waitIdx {
		obj := h.obj
		tail := t.wTail[obj]
		for s := t.wNext[tail]; ; s = t.wNext[s] {
			dst = append(dst, request{station: int(s), object: int(obj), arrived: int(t.wArrived[s])})
			if s == tail {
				break
			}
		}
		t.wTail[obj] = -1
	}
	slices.SortFunc(dst, func(a, b request) int {
		return cmpSeq(t.wSeq[a.station], t.wSeq[b.station])
	})
	t.waitIdx = t.waitIdx[:0]
	t.nQueued, t.coldQueued = 0, 0
	return dst
}

// settled reports that no waiter can change anything this interval:
// the farm cannot fit even the smallest object, no waiter needs a
// materialization requested, and no fault can refuse one.
func (t *stripedTech) settled() bool {
	return t.coldQueued == 0 && t.cfg.D-t.busy < t.minDegree && !t.eng.faultActive()
}

// admit fills idle disks per §3.1: in arrival order, every waiting
// request whose disks are free starts, and non-resident objects are
// routed to the tertiary manager.  With FCFSStrict the scan stops at
// the first request that cannot start (head-of-line blocking).
//
// The walk visits objects, not requests (DESIGN.md §11).  Within one
// scan disks only get busier, so once an object's head waiter has run
// the contiguous probe — admitted onto those disks or refuted — every
// later waiter of the object would fail it too.  Later waiters are
// visited only while they can still change the outcome, and then in
// exact arrival order, merged into the index walk from a small heap:
// while Algorithm-1 budget is left, when the object's layout is
// unplayable under a fault (every waiter is refused), and under
// FCFSStrict (the first failure stops the scan).
func (t *stripedTech) admit() {
	if t.nQueued == 0 || t.settled() {
		return
	}
	budget := fragmentedAttemptsPerInterval
	strict := t.cfg.FCFSStrict
	idx := t.waitIdx
	kept := idx[:0] // objects whose head stays, compacted in place
	i := 0
	for !t.settled() {
		var c waitCursor
		head := i < len(idx) && (len(t.cursors) == 0 || seqBefore(idx[i].seq, t.cursors[0].seq))
		if head {
			c = waitCursor{waitHead: idx[i], prev: -1}
			i++
		} else if len(t.cursors) > 0 {
			c = t.popCursor()
		} else {
			break
		}
		obj := int(c.obj)
		outcome := t.visit(obj, c.s, !head, &budget)
		if head {
			if outcome == waitKept {
				kept = append(kept, c.waitHead)
			} else {
				t.moved = append(t.moved, c.waitHead)
			}
		}
		if outcome == waitKept && strict {
			break
		}
		more := strict || outcome == waitRejected || t.laterMayAdmit(obj, budget)
		if outcome == waitKept && !more {
			continue
		}
		if c.prev < 0 {
			c.prev = t.wTail[obj]
		}
		last, next, prev := c.s == t.wTail[obj], t.wNext[c.s], c.s
		if outcome != waitKept {
			t.unlink(obj, c.prev, c.s)
			prev = c.prev
		}
		if more && !last {
			t.pushCursor(waitCursor{waitHead: waitHead{seq: t.wSeq[next], obj: c.obj, s: next}, prev: prev})
		}
	}
	kept = append(kept, idx[i:]...)
	t.cursors = t.cursors[:0]
	t.restoreIndex(kept)
	if len(t.rejects) > 0 {
		// Visited in arrival order, so refused in arrival order.
		for _, r := range t.rejects {
			t.eng.countReject(r)
		}
		t.rejects = t.rejects[:0]
	}
}

// laterMayAdmit reports whether a waiter behind obj's head could still
// start this scan: only Algorithm 1 can, and only with budget left and
// room on the farm (both only shrink during a scan).
func (t *stripedTech) laterMayAdmit(obj, budget int) bool {
	return t.cfg.Fragmented && budget > 0 && t.ready[obj] && t.cfg.D-t.busy >= t.degree(obj)
}

// visit runs one waiter's admission attempt.  later marks a waiter
// behind its object's head: the head already took the object's
// contiguous probe this scan, so only Algorithm 1 can still start it.
func (t *stripedTech) visit(obj int, s int32, later bool, budget *int) int {
	e := t.eng
	if !t.ready[obj] {
		e.tman.Request(obj) // idempotent: only the first waiter's call queues work
		return waitKept
	}
	first, ok := t.store.FirstDisk(obj)
	if !ok { // evicted between materialization and admission
		t.setReady(obj, false)
		e.tman.Request(obj)
		return waitKept
	}
	if !t.playable(obj) {
		// The layout's stride orbit crosses a down disk: admitting
		// would guarantee hiccups or an abort, so refuse instead —
		// after the scan, since the refusal reissues the station.
		t.rejects = append(t.rejects, t.waiter(obj, s))
		return waitRejected
	}
	m := t.degree(obj)
	if t.cfg.D-t.busy < m {
		return waitKept
	}
	if !later && t.tryContiguous(obj, s, first, m) || t.tryFragmented(obj, s, first, m, budget) {
		e.pinned[obj]--
		return waitAdmitted
	}
	return waitKept
}

// waiter returns the request station s waits on obj with.
func (t *stripedTech) waiter(obj int, s int32) request {
	return request{station: int(s), object: obj, arrived: int(t.wArrived[s])}
}

// restoreIndex rebuilds the object index after a scan: kept is the
// untouched, still ordered part; the few objects whose head left are
// sorted by their new head and merged in from the back, in place, and
// emptied ones drop out.  Every moved object came out of the index, so
// the merge fits in the index's backing array.
func (t *stripedTech) restoreIndex(kept []waitHead) {
	moved := t.moved[:0]
	for _, h := range t.moved {
		if t.wTail[h.obj] >= 0 {
			moved = append(moved, t.head(h.obj))
		}
	}
	t.moved = moved[:0]
	slices.SortFunc(moved, func(a, b waitHead) int { return cmpSeq(a.seq, b.seq) })
	i, j := len(kept)-1, len(moved)-1
	out := kept[:len(kept)+len(moved)]
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && seqBefore(moved[j].seq, kept[i].seq) {
			out[k] = kept[i]
			i--
		} else {
			out[k] = moved[j]
			j--
		}
	}
	t.waitIdx = out
}

// pushCursor and popCursor keep t.cursors a min-heap by sequence.
func (t *stripedTech) pushCursor(c waitCursor) {
	h := append(t.cursors, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !seqBefore(h[i].seq, h[p].seq) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	t.cursors = h
}

func (t *stripedTech) popCursor() waitCursor {
	h := t.cursors
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && seqBefore(h[r].seq, h[m].seq) {
			m = r
		}
		if !seqBefore(h[m].seq, h[i].seq) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	t.cursors = h
	return top
}

// tryContiguous starts r on the M virtual disks under subobject 0's
// fragments when all of them are free right now.
func (t *stripedTech) tryContiguous(obj int, s int32, first, m int) bool {
	vids := t.vidScratch[:m]
	for j := 0; j < m; j++ {
		v := t.vdiskOf((first + j) % t.cfg.D)
		if t.vbusy[v] != freeSlot {
			return false
		}
		vids[j] = v
	}
	t.start(t.waiter(obj, s), first, vids, t.zeroTs[:m], 0)
	return true
}

// tryFragmented runs the Algorithm-1 time-fragmented admission over
// all currently free disks.
func (t *stripedTech) tryFragmented(obj int, s int32, first, m int, fragBudget *int) bool {
	if !t.cfg.Fragmented || *fragBudget <= 0 {
		return false
	}
	*fragBudget--
	// Build the free-disk list from the free bitset: ascending virtual
	// disk order, the same content and order the old O(D) vbusy walk
	// produced, at a word of occupancy per 64 disks.
	free := t.freeScratch[:0]
	for w, word := range t.freeBits {
		for word != 0 {
			v := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			free = append(free, t.physicalOf(v))
		}
	}
	t.freeScratch = free[:0]
	a, ok := vdisk.ChooseVirtualDisks(t.cfg.D, t.cfg.K, first, m, free)
	if !ok {
		return false
	}
	maxStartup := t.cfg.MaxStartup
	if maxStartup == 0 {
		// Each interval of startup delay costs one buffered fragment
		// per early stream and stretches the disk reservation past the
		// display length, so unbounded Tmax hurts more than queueing a
		// little longer; a few interval-widths of headroom captures
		// nearly all of Algorithm 1's benefit.
		maxStartup = 2 * m
	}
	if a.Tmax > maxStartup {
		return false
	}
	gvids := t.vidScratch[:m]
	ts := t.tsScratch[:m]
	for i, z := range a.Z {
		gvids[i] = t.vdiskOf(z)
		ts[i] = a.T[i]
	}
	t.start(t.waiter(obj, s), first, gvids, ts, a.Tmax)
	return true
}

// start activates a display on the given virtual disks and schedules
// its future events: one release per stream and one completion.
func (t *stripedTech) start(r request, first int, vids, ts []int, tmax int) {
	e := t.eng
	n := t.cfg.Subobjects
	d := t.allocSlot()
	t.dSeq[d] = t.nextSeq
	t.nextSeq++
	t.dStation[d] = int32(r.station)
	t.dObject[d] = int32(r.object)
	t.dFirst[d] = int32(first)
	t.dTau0[d] = int32(e.now)
	t.dTmax[d] = int32(tmax)
	t.dM[d] = int32(len(vids))
	t.dDone[d] = false
	t.dDeg[d] = 0
	t.dDegAt[d] = -2 // never degraded: -2 is adjacent to no interval
	base := int(d) * t.stride
	for i := range vids {
		if t.vbusy[vids[i]] != freeSlot {
			e.hiccups++
		}
		t.setVBusy(vids[i], d)
		t.sVdisk[base+i] = int32(vids[i])
		t.sT[base+i] = int32(ts[i])
		slot := (e.now + ts[i] + n) % t.horizon
		t.releases[slot] = append(t.releases[slot], streamRef{slot: d, i: int32(i)})
	}
	slot := (e.now + tmax + n) % t.horizon // deliveryEnd + 1
	t.completions[slot] = append(t.completions[slot], d)
	if tmax > 0 {
		t.coalescing = append(t.coalescing, d)
	}
	t.active++
	t.byObject[r.object]++
	e.noteAdmit(r, tmax)
	if e.tracer != nil {
		// Concatenation, not Sprintf: a traced hot-set run admits tens
		// of thousands of displays, and formatting would dominate it.
		e.emit(EvAdmit, r.object, r.station, "first="+strconv.Itoa(first)+" tmax="+strconv.Itoa(tmax))
	}
}

// coalesce applies Algorithm 2: any stream buffering ahead of the
// display (T_i < Tmax) moves to the ideal virtual disk — the one a
// contiguous admission at τ0+Tmax would have used — as soon as it is
// free.  Only displays that still have such a stream are visited; the
// list drops a display once every stream has moved, released, or can
// never move (its ideal disk is the one it already holds).
func (t *stripedTech) coalesce() {
	if len(t.coalescing) == 0 {
		return
	}
	e := t.eng
	n := t.cfg.Subobjects
	kept := t.coalescing[:0]
	for _, d := range t.coalescing {
		if t.dDone[d] {
			continue
		}
		pending := false
		base := int(d) * t.stride
		tau0, tmax := int(t.dTau0[d]), int(t.dTmax[d])
		first := int(t.dFirst[d])
		for i := 0; i < int(t.dM[d]); i++ {
			v := t.sVdisk[base+i]
			if v < 0 || int(t.sT[base+i]) == tmax {
				continue
			}
			// The virtual disk a contiguous admission at τ0+Tmax
			// would have used for fragment i.
			ideal := vdisk.VirtualAt((first+i)%t.cfg.D, tau0+tmax, t.cfg.K, t.cfg.D)
			if ideal == int(v) {
				continue // already on it; will release on its own clock
			}
			if t.vbusy[ideal] != freeSlot {
				pending = true
				continue
			}
			t.setVBusy(int(v), freeSlot)
			t.setVBusy(ideal, d)
			t.sVdisk[base+i] = int32(ideal)
			t.sT[base+i] = int32(tmax)
			slot := (tau0 + tmax + n) % t.horizon
			t.releases[slot] = append(t.releases[slot], streamRef{slot: d, i: int32(i)})
			e.coalescings++
			if e.tracer != nil {
				e.emit(EvCoalesce, int(t.dObject[d]), int(t.dStation[d]), "fragment "+strconv.Itoa(i))
			}
		}
		if pending {
			kept = append(kept, d)
		}
	}
	t.coalescing = kept
}
