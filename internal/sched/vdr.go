package sched

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/policy"
	"github.com/mmsim/staggered/internal/sim"
)

// clusterJob describes what a busy cluster is doing.  One byte: the
// job table is walked by the degraded scan and activeDisplays, and at
// 10k clusters a dense byte array keeps it in a few cache lines.
type clusterJob int8

const (
	jobIdle clusterJob = iota
	jobDisplay
	jobCopySource
	jobCopyTarget
	jobMaterialize
)

// vdrTech is the virtual data replication baseline of [GS93] as a
// Technique: D/M physical clusters, each object declustered over the
// disks of a single cluster, dynamic replication of hot objects (the
// MRT substitute of package policy), and LFU replacement at cluster
// granularity.  A cluster serves one display at a time.
//
// Per-interval work is event-driven: job completions live in
// interval-keyed buckets, the busy-cluster count and per-object
// copies-in-flight are maintained incrementally, and the admission
// scan runs only when something it reads has changed, so an interval
// costs O(events that fire), not O(clusters + queue).
type vdrTech struct {
	eng   *Engine
	cfg   Config
	store *core.VDRStore
	repl  policy.Replication

	// Cluster state, struct-of-arrays with compact element types (the
	// interval and id spaces fit int32 by the Config validation
	// ranges), so the per-interval walks touch a quarter of the memory
	// the word-sized slices did.
	clusters  int
	job       []clusterJob
	busyUntil []int32 // interval at which the cluster frees (exclusive)
	jobObject []int32 // object the cluster is working on
	station   []int32 // station of a display job

	busyClusters int                 // clusters with a non-idle job
	displayJobs  int                 // clusters currently running a display
	endings      *sim.TickWheel[int] // interval -> clusters whose job ends
	endBuf       []int               // reused Due drain buffer

	copyTargets []int // object -> in-flight disk-to-disk copies
	totalCopies int   // total in-flight disk-to-disk copies

	objScratch  []int // eviction-plan candidate scratch
	dropScratch []int // eviction-plan drop scratch
	dropBest    []int // best drop set found by victimCluster

	// Degraded-mode state, allocated only when a fault plan is set so
	// the fault-free hot path keeps its nil checks free.
	clusterBad  []int     // cluster -> down disks in it
	clusterSlow []int     // cluster -> slow disks in it
	jobDegraded []int     // cluster -> consecutive degraded display intervals
	rejectBuf   []request // unservable admissions, refused after the queue swap

	queue     []request // waiting requests, arrival order
	totalRefs int64     // references issued, for popularity shares

	// Replication stagings wait in their own low-priority queue:
	// misses (real users waiting for a cold object) always reach the
	// tertiary device first.
	replQueue  []int
	replQueued []bool

	// Tertiary state.
	matObject   int
	matStarted  bool
	matCluster  int
	matFromTman bool // current staging came from the miss queue

	// Scan on change (DESIGN.md §11): epoch counts changes to anything
	// admit reads — bumped at each choke point that writes one — and
	// quietAt is the epoch of the last scan that changed nothing.  Such
	// a scan is a fixed point, so admit returns at once while the two
	// match.
	epoch   int
	quietAt int
}

// bind allocates the VDR technique's state and warm-starts the farm.
func (t *vdrTech) bind(e *Engine) error {
	cfg := e.cfg
	if cfg.D%cfg.M != 0 {
		return fmt.Errorf("sched: VDR needs D (%d) divisible by M (%d)", cfg.D, cfg.M)
	}
	store, err := core.NewVDRStore(cfg.D, cfg.M, cfg.CapacityFragments)
	if err != nil {
		return err
	}
	repl := policy.Replication{Theta: cfg.ReplicationTheta}
	if cfg.ReplicationTheta == 0 {
		repl = policy.DefaultReplication()
	}
	if err := repl.Validate(); err != nil {
		return err
	}
	t.eng = e
	t.cfg = cfg
	t.store = store
	t.repl = repl
	t.clusters = cfg.D / cfg.M
	t.endings = sim.NewTickWheel[int]()
	t.copyTargets = make([]int, cfg.Objects)
	t.replQueued = make([]bool, cfg.Objects)
	t.matObject = -1
	t.quietAt = -1
	t.job = make([]clusterJob, t.clusters)
	t.busyUntil = make([]int32, t.clusters)
	t.jobObject = make([]int32, t.clusters)
	t.station = make([]int32, t.clusters)
	if e.faultEvents != nil {
		t.clusterBad = make([]int, t.clusters)
		t.clusterSlow = make([]int, t.clusters)
		t.jobDegraded = make([]int, t.clusters)
	}
	for c := range t.jobObject {
		t.jobObject[c] = -1
	}
	// Warm-start the farm at the replication policy's steady state:
	// replicas proportional to popularity (building a replica set
	// through the 40 mbps tertiary takes days of simulated time, so
	// starting cold would measure the transient, not the policy).
	// Objects are loaded in popularity order, each up to its target
	// replica count, but always preferring a first copy of the next
	// object over a surplus copy of a hotter one once targets allow.
	concurrency := cfg.Stations
	preload := cfg.PreloadTop
	if preload == 0 {
		preload = cfg.Objects
	}
	// Candidate replicas in decreasing marginal value p(id)/copy#,
	// capped at each object's target; placing greedily by marginal
	// value yields the allocation a minimum-response-time policy
	// converges to.
	type cand struct {
		id    int
		copy  int
		value float64
	}
	var cands []cand
	addCand := func(id int) {
		p := e.gen.Popularity(id)
		want := repl.Target(p, concurrency)
		for j := 1; j <= want; j++ {
			cands = append(cands, cand{id: id, copy: j, value: p / float64(j)})
		}
	}
	if cfg.PreloadObjects != nil {
		// Cluster-assigned shard of the catalog: warm-start only the
		// objects this server replicates.
		for _, id := range cfg.PreloadObjects {
			addCand(id)
		}
	} else {
		for id := 0; id < preload && id < cfg.Objects; id++ {
			addCand(id)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].value != cands[j].value {
			return cands[i].value > cands[j].value
		}
		if cands[i].id != cands[j].id {
			return cands[i].id < cands[j].id
		}
		return cands[i].copy < cands[j].copy
	})
	ids := make([]int, len(cands))
	for i, cd := range cands {
		ids[i] = cd.id
	}
	store.Preload(ids, cfg.Subobjects)
	return nil
}

func (t *vdrTech) name() string { return VDRName }

// push queues a reference at the end of the arrival-order queue: VDR
// admits several waiters of one object per interval (one per idle
// replica), so its scan stays a walk over requests.
func (t *vdrTech) push(r request) {
	t.queue = append(t.queue, r)
	t.totalRefs++
	t.epoch++ // the engine has just bumped the pin count and LFU count too
}

func (t *vdrTech) queued() int { return len(t.queue) }

func (t *vdrTech) drainQueue() []request {
	q := t.queue
	t.queue = nil
	t.epoch++
	return q
}

// interval runs one interval of VDR policy: cluster job endings,
// tertiary progress, then the admission scan; it returns the busy
// disk count (busy clusters × M) for the utilization integral.
func (t *vdrTech) interval() int {
	if t.eng.phaseLabels {
		return t.intervalLabeled()
	}
	if t.eng.faultActive() {
		t.degradedScan()
	}
	t.finishDue()
	t.stepTertiary()
	t.admit()
	return t.busyClusters * t.cfg.M
}

// intervalLabeled is interval with each phase wrapped in a pprof
// label, taken only while a CPU profile is being collected.
func (t *vdrTech) intervalLabeled() int {
	if t.eng.faultActive() {
		t.degradedScan()
	}
	labeled("finishDue", t.finishDue)
	labeled("tertiary", t.stepTertiary)
	labeled("admit", t.admit)
	return t.busyClusters * t.cfg.M
}

// activeDisplays returns the display-job count, maintained
// incrementally by setJob/clearJob instead of walking all clusters.
func (t *vdrTech) activeDisplays() int { return t.displayJobs }

// onFault maintains the per-cluster fault tallies.  A repaired
// cluster's degraded streak resets; a tertiary outage abandons the
// staging in flight.
func (t *vdrTech) onFault(ev fault.Event) {
	t.epoch++ // the engine's downCount and this cluster's clusterBad
	switch ev.Kind {
	case fault.DiskFail:
		t.clusterBad[ev.Disk/t.cfg.M]++
	case fault.DiskRepair:
		c := ev.Disk / t.cfg.M
		t.clusterBad[c]--
		if t.clusterBad[c] == 0 {
			t.jobDegraded[c] = 0
		}
	case fault.SlowStart:
		t.clusterSlow[ev.Disk/t.cfg.M]++
	case fault.SlowEnd:
		t.clusterSlow[ev.Disk/t.cfg.M]--
	case fault.TertiaryFail:
		if t.matObject >= 0 {
			t.abortStaging()
		}
	}
}

// degradedScan visits each faulted cluster once per interval while any
// fault is active: a display on a cluster with a down disk rides out
// up to the hiccup limit of consecutive degraded intervals before
// aborting (a slow disk only inflates the degraded-hiccup count);
// copies and materializations touching a down disk are abandoned
// immediately — their product would be unreadable anyway.  The scan
// maps the engine's sorted faulted-disk active set to clusters: a
// cluster's disks [c·M, (c+1)·M) are contiguous, so duplicates are
// consecutive and the visit order is ascending cluster — the same
// order the old all-clusters walk used — at O(faulted disks), not
// O(clusters).
func (t *vdrTech) degradedScan() {
	e := t.eng
	lastC := -1
	for _, f := range e.faultedDisks {
		c := int(f) / t.cfg.M
		if c == lastC {
			continue
		}
		lastC = c
		bad, slow := t.clusterBad[c] > 0, t.clusterSlow[c] > 0
		if !bad && !slow || t.job[c] == jobIdle {
			continue
		}
		switch t.job[c] {
		case jobDisplay:
			e.degHiccups++
			if bad {
				t.jobDegraded[c]++
				if t.jobDegraded[c] > e.hiccupLimit {
					t.abortDisplay(c)
				}
			}
		case jobCopySource, jobCopyTarget:
			if bad {
				t.abortCopy(c)
			}
		case jobMaterialize:
			if bad {
				t.abortStaging()
			}
		}
	}
}

// abortDisplay kills the display on cluster c; its ending-wheel entry
// goes stale (finishDue revalidates against jobIdle).
func (t *vdrTech) abortDisplay(c int) {
	station, object := int(t.station[c]), int(t.jobObject[c])
	t.clearJob(c)
	t.eng.countAbort(station, object)
}

// abortCopy abandons a disk-to-disk copy from either end, releasing
// the partner cluster too (copy pairs share object and end interval).
func (t *vdrTech) abortCopy(c int) {
	obj, until := t.jobObject[c], t.busyUntil[c]
	other := jobCopySource
	if t.job[c] == jobCopySource {
		other = jobCopyTarget
	}
	t.clearJob(c)
	for p := 0; p < t.clusters; p++ {
		if t.job[p] == other && t.jobObject[p] == obj && t.busyUntil[p] == until {
			t.clearJob(p)
			return
		}
	}
}

// abortStaging abandons the pending or in-flight materialization; a
// miss staging returns its device slot so stations re-request the
// object, a replication staging is simply dropped (the replication
// trigger re-fires if still warranted).
func (t *vdrTech) abortStaging() {
	if t.matFromTman {
		// A miss staging has batched followers waiting on the queued
		// leader request; detach them before the object is dropped.
		t.eng.cacheStagingAborted(t.matObject)
	}
	if t.matStarted {
		t.clearJob(t.matCluster)
	}
	if t.matFromTman {
		t.eng.tman.Abort()
	}
	t.matObject = -1
	t.matStarted = false
	t.epoch++
}

// killActive implements the whole-server kill (DESIGN.md §14): the
// staging aborts first (a miss staging re-queues its batched
// followers, and the engine drains the queue right after), then every
// busy cluster's job aborts through the same typed paths the disk
// faults use.  abortCopy clears both ends of a pair, so the second end
// is seen idle when the walk reaches it.  The replication queue is
// dropped outright — the trigger re-fires after restart if still
// warranted.
func (t *vdrTech) killActive() {
	if t.matObject >= 0 {
		t.abortStaging()
	}
	for c := 0; c < t.clusters; c++ {
		switch t.job[c] {
		case jobDisplay:
			t.abortDisplay(c)
		case jobCopySource, jobCopyTarget:
			t.abortCopy(c)
		case jobMaterialize:
			t.clearJob(c) // defensive: abortStaging above cleared it
		}
	}
	t.replQueue = t.replQueue[:0]
	clear(t.replQueued)
	t.epoch++
}

// onRevive jumps the ending wheel across the dead window: every
// cluster is idle after killActive, so no scheduled ending survives,
// and the wheel just needs its cursor moved so the next Due call —
// which asserts single-interval advancement — lands on now.  Kill
// reset the tertiary manager after the last epoch bump, so the first
// scan after the restart must run.
func (t *vdrTech) onRevive() {
	t.endings.Reset(t.eng.now - 1)
	t.epoch++
}

// adoptObject places one replica of id for the replica-healing pass
// without consuming tertiary time — the cluster layer's per-window
// budget is the bandwidth model.  victimCluster already refuses
// clusters holding id, so healing an object this server still has a
// copy of grows its replica set, which is the point.
func (t *vdrTech) adoptObject(id int) bool {
	if id == t.matObject || t.eng.tman.Pending(id) || t.replQueued[id] {
		return false
	}
	c, drop, _, ok := t.victimCluster(id)
	if !ok {
		return false
	}
	if !t.executePlan(c, drop) {
		return false
	}
	t.epoch++
	if err := t.store.PlaceReplica(id, c, t.cfg.Subobjects); err != nil {
		t.eng.hiccups++
		return false
	}
	t.eng.replications++
	return true
}

// anyLiveReplica reports whether some replica of id sits on a cluster
// with no down disk.
func (t *vdrTech) anyLiveReplica(id int) bool {
	for _, c := range t.store.Replicas(id) {
		if t.clusterBad[c] == 0 {
			return true
		}
	}
	return false
}

func (t *vdrTech) uniqueResidents() int { return t.store.UniqueResident() }

func (t *vdrTech) holdsObject(id int) bool { return len(t.store.Replicas(id)) > 0 }

// setJob starts a job on cluster c until the given interval,
// maintaining the busy count, the copy-in-flight counters, and the
// completion bucket.
func (t *vdrTech) setJob(c int, job clusterJob, object, until int) {
	t.epoch++
	t.job[c] = job
	t.jobObject[c] = int32(object)
	t.busyUntil[c] = int32(until)
	t.busyClusters++
	if t.jobDegraded != nil {
		t.jobDegraded[c] = 0
	}
	t.endings.Add(until, c)
	switch job {
	case jobDisplay:
		t.displayJobs++
	case jobCopyTarget:
		t.copyTargets[object]++
		t.totalCopies++
	}
}

// clearJob returns cluster c to idle.  Every settled ending passes
// through here, so its epoch bump also covers the replica a finished
// copy or staging placed and the tertiary Finish.
func (t *vdrTech) clearJob(c int) {
	t.epoch++
	switch t.job[c] {
	case jobDisplay:
		t.displayJobs--
	case jobCopyTarget:
		t.copyTargets[t.jobObject[c]]--
		t.totalCopies--
	}
	t.job[c] = jobIdle
	t.jobObject[c] = -1
	t.busyClusters--
}

// applyEnding settles one due cluster ending, revalidating against the
// cluster's live state first: an entry is stale when a fault aborted
// the job or a new job was set with a later deadline, and a cluster
// aborted and re-occupied within one interval can appear twice in one
// bucket (the first visit clears the job, the second skips on idle).
func (t *vdrTech) applyEnding(c int, reissue []int) []int {
	e := t.eng
	if t.job[c] == jobIdle || e.now < int(t.busyUntil[c]) {
		return reissue
	}
	switch t.job[c] {
	case jobDisplay:
		e.completed++
		e.completedTotal++
		e.stn.Complete(int(t.station[c]))
		reissue = append(reissue, int(t.station[c]))
	case jobCopyTarget:
		if err := t.store.PlaceReplica(int(t.jobObject[c]), c, t.cfg.Subobjects); err != nil {
			e.hiccups++
		} else {
			e.replications++
		}
	case jobCopySource:
		// Released together with the target; nothing to record.
	case jobMaterialize:
		wasResident := t.store.Resident(t.matObject)
		if err := t.store.PlaceReplica(t.matObject, c, t.cfg.Subobjects); err != nil {
			e.hiccups++
		} else if wasResident {
			e.replications++
		}
		if t.matFromTman {
			if _, err := e.tman.Finish(); err != nil {
				e.hiccups++
			}
		}
		e.materialized++
		t.matObject = -1
		t.matStarted = false
	}
	t.clearJob(c)
	return reissue
}

// finishDue completes the cluster jobs ending now — a bucket lookup,
// not a scan of all clusters.  Clusters are processed in ascending
// index order, matching a full scan.
func (t *vdrTech) finishDue() {
	e := t.eng
	t.endBuf = t.endings.Due(e.now, t.endBuf[:0])
	ending := t.endBuf
	if len(ending) == 0 {
		return
	}
	sort.Ints(ending)
	reissue := e.reissueBuf[:0]
	for _, c := range ending {
		reissue = t.applyEnding(c, reissue)
	}
	for _, s := range reissue {
		e.reissue(s)
	}
	e.reissueBuf = reissue[:0]
}

// stepTertiary stages non-resident objects through the tertiary
// device into an evicted cluster.
func (t *vdrTech) stepTertiary() {
	e := t.eng
	if t.matStarted {
		e.tertBusy++
		return // completion handled by finishDue
	}
	if e.tertDown {
		return // device offline: no new staging starts
	}
	if t.matObject < 0 {
		if id, ok := e.tman.StartNext(); ok {
			t.matObject = id
			t.matFromTman = true
		} else if len(t.replQueue) > 0 {
			id := t.replQueue[0]
			t.replQueue = t.replQueue[1:]
			t.replQueued[id] = false
			t.matObject = id
			t.matFromTman = false
		} else {
			return
		}
		t.epoch++ // matObject, and the manager's or replQueue's contents
	}
	c, drop, _, ok := t.victimCluster(t.matObject)
	if !ok {
		return // no evictable idle cluster; retry next interval
	}
	if !t.executePlan(c, drop) {
		return
	}
	t.setJob(c, jobMaterialize, t.matObject, e.now+t.cfg.MaterializeIntervals())
	t.matStarted = true
	t.matCluster = c
	e.tertBusy++
}

// replicaEvictable reports whether the replica of id on an idle
// cluster may be dropped: it is not the last copy of an object that
// queued displays are waiting for.
func (t *vdrTech) replicaEvictable(id int) bool {
	return len(t.store.Replicas(id)) > 1 || t.eng.pinned[id] == 0
}

// marginalValue estimates the cost of losing one replica of id: its
// access frequency divided by its replica count (including copies in
// flight).  Losing one of many replicas of a hot object costs less
// than losing the only replica of a lukewarm one.
func (t *vdrTech) marginalValue(id int) float64 {
	reps := len(t.store.Replicas(id)) + t.copiesInFlight(id)
	if reps < 1 {
		reps = 1
	}
	return float64(t.eng.lfu.Count(id)) / float64(reps)
}

// evictionPlan computes the cheapest set of replicas to drop from
// cluster c so that `need` cylinders become free: evictable replicas
// in increasing marginal-value order, stopping as soon as enough
// space exists.  loss is the largest marginal value dropped.  The
// drop set is appended to buf (sliced to zero length first).
func (t *vdrTech) evictionPlan(c, need, forObject int, buf []int) (drop []int, loss float64, ok bool) {
	if t.job[c] != jobIdle {
		return nil, 0, false
	}
	if t.clusterBad != nil && t.clusterBad[c] > 0 {
		return nil, 0, false // never stage or copy into a broken cluster
	}
	if forObject >= 0 && t.store.HasReplicaOn(forObject, c) {
		return nil, 0, false // a replica of the object must not overwrite itself
	}
	free := t.store.ClusterFree(c)
	if free >= need {
		return nil, 0, true
	}
	// ObjectsOn is kept sorted by id; copy into scratch so the
	// marginal-value sort below cannot disturb the store's index.
	// The comparator is a strict total order (ids are unique), so any
	// sorting algorithm yields the same permutation.
	objs := append(t.objScratch[:0], t.store.ObjectsOn(c)...)
	t.objScratch = objs[:0]
	slices.SortFunc(objs, func(a, b int) int {
		va, vb := t.marginalValue(a), t.marginalValue(b)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		// Equal marginal value (typically both zero): evict the
		// youngest id first, protecting not-yet-referenced residents.
		case a > b:
			return -1
		default:
			return 1
		}
	})
	drop = buf[:0]
	for _, id := range objs {
		if !t.replicaEvictable(id) {
			continue
		}
		drop = append(drop, id)
		free += t.cfg.Subobjects
		if v := t.marginalValue(id); v > loss {
			loss = v
		}
		if free >= need {
			return drop, loss, true
		}
	}
	return nil, 0, false
}

// victimCluster picks the cheapest cluster that can hold a new
// replica of size Subobjects, returning its eviction plan and loss.
// The returned drop slice is valid until the next victimCluster call.
func (t *vdrTech) victimCluster(forObject int) (cluster int, drop []int, loss float64, ok bool) {
	best := -1
	var bestDrop []int
	bestLoss := 0.0
	cur := t.dropScratch
	spare := t.dropBest
	for c := 0; c < t.clusters; c++ {
		d, l, planOK := t.evictionPlan(c, t.cfg.Subobjects, forObject, cur)
		if !planOK {
			continue
		}
		if best < 0 || l < bestLoss {
			best, bestLoss = c, l
			if d != nil {
				// Keep d's backing out of the scratch rotation until a
				// better plan replaces it.
				cur, spare = spare, cur
			}
			bestDrop = d
		}
	}
	t.dropScratch, t.dropBest = cur, spare
	if best < 0 {
		return 0, nil, 0, false
	}
	return best, bestDrop, bestLoss, true
}

// executePlan evicts the planned replicas from cluster c.
func (t *vdrTech) executePlan(c int, drop []int) bool {
	t.epoch++ // replica residency
	for _, id := range drop {
		if err := t.store.EvictReplica(id, c, t.cfg.Subobjects); err != nil {
			t.eng.hiccups++
			return false
		}
	}
	return true
}

// admit scans the queue in arrival order: requests for resident
// objects start on an idle replica cluster; hot contended objects
// trigger replication; non-resident objects go to the tertiary
// manager.  The scan is skipped while none of its inputs has changed
// since a scan that changed nothing (see vdrTech.epoch).
func (t *vdrTech) admit() {
	if t.epoch == t.quietAt {
		return
	}
	start := t.epoch
	e := t.eng
	kept := t.queue[:0]
	for _, r := range t.queue {
		if !t.store.Resident(r.object) {
			if t.matObject != r.object && e.tman.Request(r.object) {
				t.epoch++
			}
			kept = append(kept, r)
			continue
		}
		if e.downCount > 0 && !t.anyLiveReplica(r.object) {
			// Every replica sits behind a down disk: refuse rather than
			// queue forever.  Deferred past the queue swap — kept
			// aliases the queue's backing array, and the rejection path
			// reissues the station into the NEW queue.
			t.rejectBuf = append(t.rejectBuf, r)
			continue
		}
		// Replication takes priority over admission for a contended
		// object: otherwise a permanently-busy sole replica could
		// never be copied (the idle interval would always be consumed
		// by the next waiting display).
		if !e.tman.Pending(r.object) && t.maybeReplicate(r.object) {
			kept = append(kept, r)
			continue
		}
		if c, ok := t.idleReplica(r.object); ok {
			t.startDisplay(r, c)
			continue
		}
		kept = append(kept, r)
	}
	t.queue = kept
	if len(t.rejectBuf) > 0 {
		t.epoch++
		for _, r := range t.rejectBuf {
			e.countReject(r)
		}
		t.rejectBuf = t.rejectBuf[:0]
	}
	if t.epoch == start {
		t.quietAt = start
	}
}

// idleReplica returns the lowest-indexed idle cluster holding a
// replica of id (the store keeps replica lists sorted).  Clusters
// with a down disk never start new displays.
func (t *vdrTech) idleReplica(id int) (int, bool) {
	for _, c := range t.store.Replicas(id) {
		if t.job[c] != jobIdle {
			continue
		}
		if t.clusterBad != nil && t.clusterBad[c] > 0 {
			continue
		}
		return c, true
	}
	return 0, false
}

// copiesInFlight returns the number of replicas of id currently being
// created, by disk-to-disk copy or by a pending/in-flight tertiary
// staging of an already-resident object.  Disk-to-disk copies are
// counted incrementally (copyTargets), not by scanning clusters.
func (t *vdrTech) copiesInFlight(id int) int {
	n := t.copyTargets[id]
	if t.store.Resident(id) && (t.eng.tman.Pending(id) || t.replQueued[id] || t.matObject == id) {
		n++
	}
	return n
}

// startDisplay occupies cluster c for one display of r.object.
func (t *vdrTech) startDisplay(r request, c int) {
	e := t.eng
	t.setJob(c, jobDisplay, r.object, e.now+t.cfg.Subobjects)
	t.station[c] = int32(r.station)
	e.pinned[r.object]--
	e.noteAdmit(r, 0)
	if e.tracer != nil {
		e.emit(EvAdmit, r.object, r.station, "cluster="+strconv.Itoa(c))
	}
}

// maybeReplicate creates an additional replica of a contended object
// when the policy's benefit test passes.  In the faithful [GS93]
// architecture the replica is staged through the tertiary device —
// it joins the same FCFS queue as misses, which is precisely why
// replication cannot keep up under heavy load.  With
// Config.DiskToDiskCopy the replica is instead copied cluster-to-
// cluster at display bandwidth (a charitable ablation).  It reports
// whether the admission scan should keep the request queued because
// an exclusive disk-to-disk copy was just started.
func (t *vdrTech) maybeReplicate(obj int) bool {
	e := t.eng
	replicas := len(t.store.Replicas(obj)) + t.copiesInFlight(obj)
	share := 0.0
	if t.totalRefs > 0 {
		share = float64(e.lfu.Count(obj)) / float64(t.totalRefs)
	}
	target := t.repl.Target(share, t.cfg.Stations)
	if !t.repl.ShouldReplicate(int(e.pinned[obj]), replicas, target) {
		return false
	}
	if !t.cfg.DiskToDiskCopy {
		// The replica is staged through the tertiary device behind
		// all miss materializations; the victim is chosen when the
		// staging starts.  The device itself is the brake on
		// replication volume — exactly the [GS93] architecture's
		// limit.
		if !t.replQueued[obj] && !e.tman.Pending(obj) && t.matObject != obj {
			t.replQueued[obj] = true
			t.replQueue = append(t.replQueue, obj)
			t.epoch++
		}
		return false // replication is asynchronous; keep admitting
	}
	// Cost/benefit with hysteresis: the marginal value of the new
	// replica must clearly exceed what the cheapest victim cluster
	// gives up, or replication would churn replicas back and forth.
	_, _, loss, ok := t.victimCluster(obj)
	if !ok {
		return false
	}
	gain := float64(e.lfu.Count(obj)) / float64(replicas+1)
	if gain <= 1.2*loss {
		return false
	}
	return t.diskToDiskCopy(obj, replicas)
}

// diskToDiskCopy starts a cluster-to-cluster copy of obj, used only
// by the DiskToDiskCopy ablation.
func (t *vdrTech) diskToDiskCopy(obj, replicas int) bool {
	// Bound the copy traffic: a small fixed share of the farm may be
	// copying at any instant, so replication can never starve
	// displays (the storms an unbounded trigger produces under zero
	// think time swamp the farm with 2-cluster copy jobs).
	maxCopies := t.clusters / 16
	if maxCopies < 1 {
		maxCopies = 1
	}
	if t.totalCopies >= maxCopies {
		return false
	}
	src, ok := t.idleReplica(obj)
	if !ok {
		return false
	}
	dst, drop, _, ok := t.victimCluster(obj)
	if !ok || dst == src {
		return false
	}
	if !t.executePlan(dst, drop) {
		return false
	}
	t.setJob(src, jobCopySource, obj, t.eng.now+t.cfg.Subobjects)
	t.setJob(dst, jobCopyTarget, obj, t.eng.now+t.cfg.Subobjects)
	return true
}
