package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	k.Run(Infinity)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run(Infinity)
	if !sort.IntsAreSorted(order) {
		t.Fatal("same-time events did not run in scheduling order")
	}
}

func TestClockAdvances(t *testing.T) {
	k := New()
	var at1, at2 Time
	k.At(1.5, func() { at1 = k.Now() })
	k.After(4.25, func() { at2 = k.Now() })
	end := k.Run(Infinity)
	if at1 != 1.5 || at2 != 4.25 {
		t.Fatalf("event times wrong: %v %v", at1, at2)
	}
	if end != 4.25 {
		t.Fatalf("final time = %v, want 4.25", end)
	}
}

func TestHorizon(t *testing.T) {
	k := New()
	ran := false
	k.At(10, func() { ran = true })
	end := k.Run(5)
	if ran {
		t.Fatal("event past horizon executed")
	}
	if end != 5 {
		t.Fatalf("Run stopped at %v, want horizon 5", end)
	}
	// Resuming past the horizon executes it.
	k.Run(Infinity)
	if !ran {
		t.Fatal("event not executed after horizon extended")
	}
}

func TestStop(t *testing.T) {
	k := New()
	count := 0
	k.At(1, func() { count++; k.Stop() })
	k.At(2, func() { count++ })
	k.Run(Infinity)
	if count != 1 {
		t.Fatalf("Stop did not halt the run: %d events ran", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run(Infinity)
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestStep(t *testing.T) {
	k := New()
	n := 0
	k.At(1, func() { n++ })
	k.At(2, func() { n++ })
	if !k.Step() || n != 1 {
		t.Fatal("first Step failed")
	}
	if !k.Step() || n != 2 {
		t.Fatal("second Step failed")
	}
	if k.Step() {
		t.Fatal("Step on empty calendar returned true")
	}
}

func TestProcessHold(t *testing.T) {
	k := New()
	var trace []Time
	k.Spawn("holder", func(p *Process) {
		trace = append(trace, p.Now())
		p.Hold(2.5)
		trace = append(trace, p.Now())
		p.Hold(1.5)
		trace = append(trace, p.Now())
	})
	k.Run(Infinity)
	want := []Time{0, 2.5, 4}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Process) {
		p.Hold(1)
		order = append(order, "a1")
		p.Hold(2)
		order = append(order, "a3")
	})
	k.Spawn("b", func(p *Process) {
		p.Hold(2)
		order = append(order, "b2")
	})
	k.Run(Infinity)
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalFireAll(t *testing.T) {
	k := New()
	s := k.NewSignal("cond")
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("waiter", func(p *Process) {
			p.Wait(s)
			woken++
		})
	}
	k.Spawn("firer", func(p *Process) {
		p.Hold(10)
		s.Fire()
	})
	k.Run(Infinity)
	if woken != 5 {
		t.Fatalf("Fire woke %d of 5 waiters", woken)
	}
}

func TestSignalFireOneFIFO(t *testing.T) {
	k := New()
	s := k.NewSignal("cond")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("waiter", func(p *Process) {
			p.Hold(Time(i) * 0.001) // stagger arrival order
			p.Wait(s)
			order = append(order, i)
		})
	}
	k.Spawn("firer", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Hold(1)
			if !s.FireOne() {
				t.Error("FireOne found no waiter")
			}
		}
	})
	k.Run(Infinity)
	for i := range order {
		if order[i] != i {
			t.Fatalf("FireOne order = %v, want FIFO", order)
		}
	}
}

func TestFireOneEmpty(t *testing.T) {
	k := New()
	s := k.NewSignal("cond")
	if s.FireOne() {
		t.Fatal("FireOne on empty signal returned true")
	}
}

func TestFacilityMutualExclusion(t *testing.T) {
	k := New()
	f := k.NewFacility("disk", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 10; i++ {
		k.Spawn("user", func(p *Process) {
			p.Request(f)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Hold(1)
			inside--
			p.Release(f)
		})
	}
	end := k.Run(Infinity)
	if maxInside != 1 {
		t.Fatalf("facility with 1 server admitted %d concurrently", maxInside)
	}
	if end != 10 {
		t.Fatalf("10 serialized unit holds ended at %v, want 10", end)
	}
}

func TestFacilityMultiServer(t *testing.T) {
	k := New()
	f := k.NewFacility("array", 3)
	for i := 0; i < 9; i++ {
		k.Spawn("user", func(p *Process) { p.Use(f, 1) })
	}
	end := k.Run(Infinity)
	if end != 3 {
		t.Fatalf("9 unit jobs on 3 servers ended at %v, want 3", end)
	}
	if got := f.Acquired(); got != 9 {
		t.Fatalf("Acquired = %d, want 9", got)
	}
}

func TestFacilityFIFO(t *testing.T) {
	k := New()
	f := k.NewFacility("disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("user", func(p *Process) {
			p.Hold(Time(i) * 0.001)
			p.Request(f)
			order = append(order, i)
			p.Hold(1)
			p.Release(f)
		})
	}
	k.Run(Infinity)
	for i := range order {
		if order[i] != i {
			t.Fatalf("facility service order = %v, want FIFO", order)
		}
	}
}

func TestFacilityUtilization(t *testing.T) {
	k := New()
	f := k.NewFacility("disk", 1)
	k.Spawn("user", func(p *Process) {
		p.Use(f, 3)
		p.Hold(1) // idle tail
	})
	k.Run(Infinity)
	if u := f.Utilization(); math.Abs(u-0.75) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	k := New()
	f := k.NewFacility("disk", 1)
	k.Spawn("bad", func(p *Process) {
		defer func() {
			if recover() == nil {
				t.Error("releasing idle facility did not panic")
			}
		}()
		p.Release(f)
	})
	k.Run(Infinity)
}

func TestZeroServerFacilityPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Error("zero-server facility did not panic")
		}
	}()
	k.NewFacility("bad", 0)
}

// TestProcessesDeterministic checks that an entire mixed process/event
// model replays identically: determinism is load-bearing for the
// experiment harness.
func TestProcessesDeterministic(t *testing.T) {
	run := func() []Time {
		k := New()
		f := k.NewFacility("disk", 2)
		var trace []Time
		for i := 0; i < 6; i++ {
			i := i
			k.Spawn("u", func(p *Process) {
				p.Hold(Time(i % 3))
				p.Request(f)
				trace = append(trace, p.Now())
				p.Hold(1.5)
				p.Release(f)
			})
		}
		k.Run(Infinity)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replays differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of job durations on a single-server facility,
// the completion time equals the sum of the durations.
func TestFacilityWorkConservation(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		k := New()
		f := k.NewFacility("disk", 1)
		var sum Time
		for _, r := range raw {
			d := Time(r) / 16
			sum += d
			k.Spawn("job", func(p *Process) { p.Use(f, d) })
		}
		end := k.Run(Infinity)
		return math.Abs(float64(end-sum)) < 1e-6
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventCalendar(b *testing.B) {
	k := New()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			k.After(1, pump)
		}
	}
	k.After(1, pump)
	b.ResetTimer()
	k.Run(Infinity)
}

func BenchmarkProcessSwitch(b *testing.B) {
	k := New()
	k.Spawn("holder", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	k.Run(Infinity)
}

func TestQuiesced(t *testing.T) {
	k := New()
	never := k.NewSignal("never")
	k.Spawn("waiter", func(p *Process) { p.Wait(never) })
	k.Run(Infinity)
	if !k.Quiesced() {
		t.Fatal("process blocked on a signal that never fires not reported as quiesced")
	}
	k2 := New()
	k2.Spawn("worker", func(p *Process) { p.Hold(1) })
	k2.Run(Infinity)
	if k2.Quiesced() {
		t.Fatal("completed model reported quiesced")
	}
}
