package sim

import "fmt"

// Process is a CSIM-style simulation process: model code that runs on
// its own goroutine but is scheduled hand-over-hand by the kernel so
// that exactly one process (or the kernel) executes at any moment.
//
// A process interacts with simulated time only through its methods:
// Hold advances the clock, Wait blocks on a Signal, Request/Release
// use a Facility.  Returning from the process function terminates it.
type Process struct {
	k      *Kernel
	name   string
	resume chan struct{} // kernel -> process: you may run
	yield  chan struct{} // process -> kernel: I am done for now
	done   bool

	// runfn is the process's persistent wakeup closure: every Hold,
	// Signal fire, and facility handover schedules this one function,
	// so blocking and unblocking a process allocates nothing after
	// Spawn.
	runfn func()
}

// Spawn creates a process named name running fn and schedules it to
// start at the current simulated time.
func (k *Kernel) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	p.runfn = p.run
	k.processes++
	go func() {
		<-p.resume // wait for first activation
		fn(p)
		p.done = true
		k.processes--
		p.yield <- struct{}{}
	}()
	k.After(0, p.runfn)
	return p
}

// run transfers control from the kernel to the process and waits for
// it to yield back.  It must only be called from kernel context.
func (p *Process) run() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// pause transfers control from the process back to the kernel.  It
// must only be called from process context, and returns when the
// kernel reactivates the process.
func (p *Process) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// Name returns the process name, for tracing.
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.k.Now() }

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Hold suspends the process for dt of simulated time (CSIM's hold()).
func (p *Process) Hold(dt Time) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: process %q holding negative time %v", p.name, dt))
	}
	p.k.After(dt, p.runfn)
	p.pause()
}

// Signal is a condition that processes can Wait on.  Fire wakes all
// waiters; FireOne wakes the longest-waiting single waiter.  Signals
// carry no payload; guard data lives in the model.
type Signal struct {
	k       *Kernel
	name    string
	waiters []*Process
}

// NewSignal creates a named signal on kernel k.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, name: name}
}

// Wait blocks the calling process until the signal fires.
func (p *Process) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.k.blocked++
	p.pause()
}

// Fire wakes every waiting process, in FIFO order, at the current time.
func (s *Signal) Fire() {
	waiters := s.waiters
	s.waiters = nil
	s.k.blocked -= len(waiters)
	for _, w := range waiters {
		s.k.After(0, w.runfn)
	}
}

// FireOne wakes the longest-waiting process, if any.  It reports
// whether a process was woken.
func (s *Signal) FireOne() bool {
	if len(s.waiters) == 0 {
		return false
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.k.blocked--
	s.k.After(0, w.runfn)
	return true
}

// Waiting returns the number of processes blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Facility is a CSIM-style server with a FIFO queue: a resource that
// serves a fixed number of concurrent users (servers).  Disks and the
// tertiary device are facilities in the micro-level model.
type Facility struct {
	k        *Kernel
	name     string
	servers  int
	inUse    int
	queue    []*Process
	busyTime Time // accumulated busy server-seconds, for utilization
	lastAt   Time
	acquired int // total successful acquisitions
}

// NewFacility creates a facility with the given number of servers.
func (k *Kernel) NewFacility(name string, servers int) *Facility {
	if servers <= 0 {
		panic(fmt.Sprintf("sim: facility %q must have at least one server", name))
	}
	return &Facility{k: k, name: name, servers: servers}
}

func (f *Facility) account() {
	f.busyTime += Time(f.inUse) * (f.k.Now() - f.lastAt)
	f.lastAt = f.k.Now()
}

// Request acquires one server of the facility, blocking the calling
// process in FIFO order while all servers are busy.
func (p *Process) Request(f *Facility) {
	if f.inUse < f.servers && len(f.queue) == 0 {
		f.account()
		f.inUse++
		f.acquired++
		return
	}
	f.queue = append(f.queue, p)
	p.k.blocked++
	p.pause()
	// The releasing process accounted and incremented on our behalf.
}

// RequestTimeout acquires one server like Request, but gives up after
// dt of simulated time in the queue (CSIM's timed reserve).  It
// reports whether a server was acquired; on false the process holds
// nothing and was removed from the queue.  The deadline is a single
// Timer cancelled in O(1) on the normal handover path — no tombstone
// closure outlives the call.
func (p *Process) RequestTimeout(f *Facility, dt Time) bool {
	if dt < 0 {
		panic(fmt.Sprintf("sim: process %q requesting %q with negative timeout %v", p.name, f.name, dt))
	}
	if f.inUse < f.servers && len(f.queue) == 0 {
		f.account()
		f.inUse++
		f.acquired++
		return true
	}
	f.queue = append(f.queue, p)
	p.k.blocked++
	acquired := true
	tm := p.k.AfterTimer(dt, func() {
		// Release dequeues the waiter before scheduling its wakeup, so
		// if p is no longer queued the handover already happened in
		// this same instant and the timeout must stand down.
		for i, q := range f.queue {
			if q == p {
				f.queue = append(f.queue[:i], f.queue[i+1:]...)
				p.k.blocked--
				acquired = false
				p.run()
				return
			}
		}
	})
	p.pause()
	p.k.Cancel(tm)
	return acquired
}

// Release returns one server to the facility, waking the head of the
// queue if any.
func (p *Process) Release(f *Facility) {
	if f.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle facility %q", f.name))
	}
	f.account()
	f.inUse--
	if len(f.queue) > 0 {
		w := f.queue[0]
		f.queue = f.queue[1:]
		f.inUse++
		f.acquired++
		p.k.blocked--
		p.k.After(0, w.runfn)
	}
}

// Use acquires the facility, holds for dt, and releases it — the CSIM
// use() convenience.
func (p *Process) Use(f *Facility, dt Time) {
	p.Request(f)
	p.Hold(dt)
	p.Release(f)
}

// Utilization returns the mean fraction of servers busy since the
// start of the simulation.
func (f *Facility) Utilization() float64 {
	f.account()
	if f.k.Now() == 0 {
		return 0
	}
	return float64(f.busyTime) / (float64(f.k.Now()) * float64(f.servers))
}

// QueueLen returns the number of processes waiting for a server.
func (f *Facility) QueueLen() int { return len(f.queue) }

// Acquired returns the number of successful acquisitions so far.
func (f *Facility) Acquired() int { return f.acquired }

// Name returns the facility name.
func (f *Facility) Name() string { return f.name }
