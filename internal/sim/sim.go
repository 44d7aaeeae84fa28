// Package sim is a process-oriented discrete-event simulation kernel,
// a pure-Go substitute for the CSIM library [Sch85] used by the paper.
//
// The kernel has two layers:
//
//   - An event calendar (a hierarchical timing wheel keyed on
//     simulated time, with FIFO tie-breaking) driving arbitrary
//     callbacks.  Scheduling and cancellation are O(1): event records
//     are slab-allocated and recycled through a free list, and Timer
//     handles address them directly, so schedule-heavy models pay no
//     heap churn.  This is the whole kernel for event-style models
//     such as the interval-quantized scheduler used by the throughput
//     experiments.
//
//   - A process layer in the CSIM style: a Process is a goroutine that
//     can Hold (advance simulated time), Wait on a Signal, or acquire a
//     Facility.  The kernel guarantees that exactly one process runs at
//     a time and that the simulated clock is globally consistent, so
//     models behave deterministically.
//
// The kernel is single-threaded from the model's point of view; the
// goroutines used by the process layer are strictly hand-over-hand
// scheduled and never run concurrently.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time float64

// Infinity is a time later than any event.
const Infinity = Time(math.MaxFloat64)

// Kernel is a discrete-event simulation instance.  A Kernel is not safe
// for concurrent use; all model code runs on the kernel's schedule.
type Kernel struct {
	now     Time
	cal     timerWheel
	stopped bool

	// process layer bookkeeping
	running   *Process // process currently executing, nil when in kernel
	processes int      // live process count, for deadlock detection
	blocked   int      // processes blocked on signals/facilities
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	k := &Kernel{}
	k.cal.init()
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute simulated time t.  Scheduling in
// the past panics: it is always a model bug.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.cal.schedule(t, fn)
}

// After schedules fn to run dt seconds from now.
func (k *Kernel) After(dt Time, fn func()) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", dt))
	}
	k.cal.schedule(k.now+dt, fn)
}

// AtTimer schedules fn at absolute time t and returns a handle for
// O(1) Cancel or Reschedule.
func (k *Kernel) AtTimer(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	return k.cal.schedule(t, fn)
}

// AfterTimer schedules fn dt seconds from now and returns its handle.
func (k *Kernel) AfterTimer(dt Time, fn func()) Timer {
	if dt < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", dt))
	}
	return k.cal.schedule(k.now+dt, fn)
}

// Cancel removes a scheduled event in O(1).  It reports false when
// the event already fired, was already cancelled, or tm is the zero
// Timer — cancelling a dead timer is not an error, so callers can
// cancel unconditionally instead of tracking liveness themselves.
func (k *Kernel) Cancel(tm Timer) bool { return k.cal.cancel(tm) }

// Reschedule moves a live timer to absolute time t in O(1), reusing
// its event record; the handle remains valid.  It reports false when
// the timer already fired or was cancelled (the event is NOT
// re-armed — use AtTimer for that).
func (k *Kernel) Reschedule(tm Timer, t Time) bool {
	if t < k.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, k.now))
	}
	return k.cal.reschedule(tm, t)
}

// Stop halts the simulation after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the calendar empties, Stop is called, or
// the clock would pass horizon.  Events scheduled exactly at horizon
// fire before Run returns (TestHorizonBoundary pins this); only
// strictly later events are left for a future Run.  It returns the
// final simulated time.  Processes still blocked on signals or
// facilities when the calendar empties simply never resume — the
// simulation has quiesced, which is how CSIM models also end;
// Quiesced reports that state.
func (k *Kernel) Run(horizon Time) Time {
	k.stopped = false
	for !k.stopped {
		idx, ok := k.cal.peek()
		if !ok {
			break
		}
		if k.cal.nodes[idx].at > horizon {
			k.now = horizon
			return k.now
		}
		at, fn := k.cal.take()
		k.now = at
		fn()
	}
	return k.now
}

// Quiesced reports whether live processes remain but all of them are
// blocked with an empty calendar — nothing can ever run again.  In a
// model with self-sustaining processes this usually indicates a bug;
// in producer/consumer models it is the normal end state.
func (k *Kernel) Quiesced() bool {
	return k.processes > 0 && k.processes == k.blocked && k.cal.count == 0
}

// Step executes exactly one event if one exists, returning false when
// the calendar is empty.  A prior Stop() consumes the first Step —
// it returns false once and resets the stop, matching Run's contract
// of clearing the flag before executing anything.
func (k *Kernel) Step() bool {
	if k.stopped {
		k.stopped = false
		return false
	}
	_, ok := k.cal.peek()
	if !ok {
		return false
	}
	at, fn := k.cal.take()
	k.now = at
	fn()
	return true
}

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return k.cal.count }
