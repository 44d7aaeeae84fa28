package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
)

// TestDispatchSkipsDeadMembers is the unit pass over the three
// policies' failover branches, against real (primed, never stepped)
// engines: the natural target dying re-routes the pick to a live
// member and counts it, the popularity no-holder fallback prefers live
// members over a drained corpse reporting zero load, and an all-dead
// cluster yields -1.
func TestDispatchSkipsDeadMembers(t *testing.T) {
	sim, err := New(multiConfig("popularity"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sim.engines {
		e.Prime()
	}

	// An object only member 0 holds: while 0 is alive popularity routes
	// there; once 0 dies the fallback must pick the live member, not the
	// dead holder and not the dead zero-load corpse.
	obj := -1
	for id := 0; id < sim.engines[0].Config().Objects; id++ {
		if sim.holds(0, id) && !sim.holds(1, id) {
			obj = id
			break
		}
	}
	if obj < 0 {
		t.Fatal("no object is held by member 0 alone")
	}

	pop := popularity{}
	if got := pop.Pick(obj, sim); got != 0 {
		t.Fatalf("live holder: Pick = %d, want 0", got)
	}
	if sim.noHolder != 0 || sim.failedOver != 0 {
		t.Fatalf("clean pick counted noHolder %d, failedOver %d", sim.noHolder, sim.failedOver)
	}

	sim.engines[0].Kill()
	if got := pop.Pick(obj, sim); got != 1 {
		t.Fatalf("dead holder: Pick = %d, want live member 1", got)
	}
	if sim.noHolder != 1 {
		t.Fatalf("dead-holder fallback counted noHolder %d, want 1", sim.noHolder)
	}

	rr := &roundRobin{}
	if got := rr.Pick(obj, sim); got != 1 {
		t.Fatalf("roundrobin with member 0 dead: Pick = %d, want 1", got)
	}
	ll := leastLoaded{}
	if got := ll.Pick(obj, sim); got != 1 {
		t.Fatalf("leastloaded with member 0 dead: Pick = %d, want 1", got)
	}
	if sim.failedOver == 0 {
		t.Fatal("no policy counted a failover off the dead member")
	}

	sim.engines[1].Kill()
	for _, d := range []Dispatch{&roundRobin{}, leastLoaded{}, popularity{}} {
		if got := d.Pick(obj, sim); got != -1 {
			t.Fatalf("%s with every member dead: Pick = %d, want -1", d.Name(), got)
		}
	}
}

// chaosFailoverConfig is the harness geometry: zero warm-up so window
// counters equal lifetime counters, open Zipf arrivals across n
// members.
func chaosFailoverConfig(n int, dispatch string, seed uint64) Config {
	base := quickBase(32, seed)
	base.WarmupIntervals = 0
	base.ZipfSkew = 1.1
	base.ArrivalsPerHour = 2500 * float64(n)
	return Config{Servers: n, Technique: "striped", Dispatch: dispatch, Base: base}
}

// TestChaosFailover is the seeded cluster chaos pass with a member
// kill in the mix: N ∈ {2, 4} members, disk faults on member 0, and a
// kill+restart window on the last member, under every dispatch policy,
// for striped members and for VDR members (the vdr- subtests, which
// also heal replicas, so VDR's Kill, Revive and adoptObject all run).
// The invariants a degraded cluster must keep: every orphaned request
// is re-admitted or counted dropped, no arrival is lost while a live
// member exists, and the dispatch ledger balances — every routed
// arrival was either admitted (Requests) or refused at a full station
// pool (OpenRejected), nothing double-counted, nothing vanished.  After
// every member step the waiting-request structure is checked too
// (Engine.CheckQueue).  CI runs this under -race.
func TestChaosFailover(t *testing.T) {
	for _, technique := range []string{"striped", "vdr"} {
		for _, n := range []int{2, 4} {
			for _, dispatch := range Policies() {
				technique, n, dispatch := technique, n, dispatch
				name := fmt.Sprintf("n%d-%s", n, dispatch)
				if technique != "striped" {
					name = technique + "-" + name
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					chaosFailover(t, technique, n, dispatch)
				})
			}
		}
	}
}

// chaosFailover runs one TestChaosFailover cell.
func chaosFailover(t *testing.T, technique string, n int, dispatch string) {
	cfg := chaosFailoverConfig(n, dispatch, uint64(3+n))
	if technique != "striped" {
		cfg.Technique = technique
		cfg.HealBudget = 2
	}
	cfg.ServerFaults = []*fault.Plan{
		fault.NewPlan().FailDiskUntil(3, 200, 500).FailDiskUntil(17, 250, 600),
	}
	cfg.ServerPlan = fault.NewPlan().FailServerUntil(n-1, 300, 650)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.stepped = func(e *sched.Engine) {
		if err := e.CheckQueue(); err != nil {
			t.Fatalf("interval %d: %v", e.Now()-1, err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	if res.OrphanedRequests != res.ReAdmitted+res.ReAdmitDropped {
		t.Errorf("orphan conservation violated: %d orphaned != %d readmitted + %d dropped",
			res.OrphanedRequests, res.ReAdmitted, res.ReAdmitDropped)
	}
	if res.LostArrivals != 0 {
		t.Errorf("%d arrivals lost with %d members and one kill", res.LostArrivals, n)
	}
	routed := 0
	for _, r := range res.Routed {
		routed += r
	}
	if got := res.Aggregate.Requests + res.Aggregate.OpenRejected; routed != got {
		t.Errorf("dispatch ledger off: routed %d != admitted %d + rejected %d",
			routed, res.Aggregate.Requests, res.Aggregate.OpenRejected)
	}
	victim := res.Servers[n-1]
	if victim.OrphanedDisplays > victim.AbortedDisplays {
		t.Errorf("victim orphaned %d displays but only aborted %d",
			victim.OrphanedDisplays, victim.AbortedDisplays)
	}
	if res.FailedOver == 0 {
		t.Errorf("%s never failed over during a 350-interval outage", dispatch)
	}
	// The victim was dead 350 of 1000 intervals: its window
	// must shrink accordingly (the Merge weighting input).
	if full := res.Servers[0].MeasureSeconds; victim.MeasureSeconds >= full {
		t.Errorf("victim dead 350 intervals still reports a full window: %v vs %v",
			victim.MeasureSeconds, full)
	}
	if res.Aggregate.Displays == 0 {
		t.Fatal("degraded cluster delivered zero displays")
	}

	// Determinism: a kill+restart run replays byte-for-byte.
	sim2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("same seed, different failover results:\n first %+v\nsecond %+v",
			res.Aggregate, res2.Aggregate)
	}
}

// TestChaosFailoverSiblingIsolation extends the sibling-isolation pass
// into the failover regime: with roundrobin routing, disk faults on
// member 0 plus a kill of member 1 must leave members 2 and 3
// byte-identical to the same run without the disk faults.  Member 1's
// drain and re-admission depend only on its own trajectory, and the
// rotation is load-blind, so the only paths member 0's faults could
// leak through are exactly the isolation bugs this test exists to
// catch.
func TestChaosFailoverSiblingIsolation(t *testing.T) {
	run := func(diskFaults bool) Result {
		cfg := chaosFailoverConfig(4, "roundrobin", 9)
		if diskFaults {
			cfg.ServerFaults = []*fault.Plan{
				fault.NewPlan().FailDiskUntil(3, 150, 500).FailDiskUntil(17, 200, 700),
			}
		}
		cfg.ServerPlan = fault.NewPlan().FailServerUntil(1, 300, 650)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(false)
	faulted := run(true)

	s0 := faulted.Servers[0]
	if s0.AbortedDisplays == 0 && s0.DegradedHiccups == 0 && s0.RejectedDegraded == 0 {
		t.Fatal("disk faults had no visible effect on member 0 — the pass proves nothing")
	}
	for _, i := range []int{2, 3} {
		if !reflect.DeepEqual(faulted.Servers[i], clean.Servers[i]) {
			t.Errorf("member 0's disk faults perturbed member %d across a kill of member 1:\nfaulted %+v\nclean   %+v",
				i, faulted.Servers[i], clean.Servers[i])
		}
	}
}
