// Package cpu models the host processor: multiple cores executing
// software threads, each thread an abstract instruction stream of compute
// spans and line-sized memory operations, plus the operating system's
// round-robin thread scheduler whose coarse quantum is one of the paper's
// root causes for poor transfer throughput (Section III-B).
//
// The core model is deliberately at "memory-system fidelity": it does not
// simulate individual instructions, but it does model the two resources
// that determine streaming throughput — the limited number of outstanding
// cacheable misses (line-fill buffers) and of outstanding non-cacheable
// stores (write-combining buffers) — so per-thread bandwidth follows
// Little's law just as on real hardware.
//
// The core pulls the next program operation when a compute span starts,
// not when it ends (see Program). That pull schedule is part of the
// model's results — it decides when a contender program observes its
// stop flag — and is the same on every engine.
package cpu

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// OpKind classifies thread operations.
type OpKind int

const (
	// OpCompute spends a fixed number of core cycles.
	OpCompute OpKind = iota
	// OpLoad issues a 64-byte load.
	OpLoad
	// OpStore issues a 64-byte store.
	OpStore
	// OpBarrier waits until every memory operation this thread issued has
	// completed.
	OpBarrier
)

// Op is one abstract thread operation.
type Op struct {
	Kind   OpKind
	Cycles int64  // OpCompute: cycles to burn
	Addr   uint64 // OpLoad/OpStore: physical address
	NC     bool   // OpLoad/OpStore: non-cacheable (PIM space, streaming stores)
}

// Program is a pull-based instruction stream. Next returns false when the
// thread has finished. The core pulls one operation ahead of execution
// (at the start of each compute span), so a program that reads external
// state in Next — a contender's stop flag — observes it one operation
// early.
type Program interface {
	Next() (Op, bool)
}

// ProgramFunc adapts a closure to Program.
type ProgramFunc func() (Op, bool)

// Next implements Program.
func (f ProgramFunc) Next() (Op, bool) { return f() }

// Config parameterizes the processor (Table I).
type Config struct {
	Cores int
	Clock clock.Hz
	// LoadBuffers bounds outstanding cacheable misses per core (line-fill
	// buffers; the 64 MSHRs of Table I are never the binding constraint).
	LoadBuffers int
	// StoreBuffers bounds outstanding non-cacheable stores per core
	// (write-combining buffers).
	StoreBuffers int
	// Quantum is the OS scheduler's round-robin time slice (Section V:
	// threads preempted every 1.5 ms).
	Quantum clock.Picos
}

// DefaultConfig is the Table I host processor.
func DefaultConfig() Config {
	return Config{
		Cores: 8,
		Clock: 3200 * clock.MHz,
		// 12 L1 line-fill buffers plus the L2 streaming prefetcher's
		// in-flight lines: ~20 useful outstanding misses per core on a
		// sequential stream.
		LoadBuffers:  20,
		StoreBuffers: 12,
		Quantum:      clock.Picos(1.5 * float64(clock.Millisecond)),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Clock <= 0 || c.LoadBuffers <= 0 || c.StoreBuffers <= 0 {
		return fmt.Errorf("cpu: non-positive config field: %+v", c)
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("cpu: non-positive quantum")
	}
	return nil
}

// Thread is one software thread.
type Thread struct {
	ID   int
	Name string

	prog Program

	// pending is the next program operation, pulled one ahead of
	// execution (see Program); progEnded records that the program is
	// exhausted.
	pending   Op
	haveOp    bool
	progEnded bool

	// resumeCycles is the unfinished remainder of a compute span the
	// thread was preempted out of; it runs first at the next dispatch.
	resumeCycles int64

	loadsOut  int // in-flight cacheable loads / fills
	storesOut int // in-flight non-cacheable stores
	totalOut  int // all in-flight memory ops (for barriers)

	core    *Core // nil while descheduled
	blocked bool  // waiting on a completion event
	done    bool
	onExit  func()

	// loadDone/storeDone are the thread's standing completion callbacks,
	// built once at spawn so the per-op issue path allocates nothing.
	loadDone, storeDone func(clock.Picos)

	// rejected is the request the memory port last turned away; the
	// thread's next issue attempt reuses it (mem.Port retains no rejected
	// request).
	rejected *mem.Req

	// computeUntil marks the end of an in-progress compute span so that a
	// preemption can carry the unfinished remainder over to the thread's
	// next dispatch instead of losing it.
	computeUntil clock.Picos

	// MemOps counts issued memory operations (for reports).
	MemOps uint64
}

// Done reports whether the program finished.
func (t *Thread) Done() bool { return t.done }

// Core is one hardware context.
type Core struct {
	id     int
	cpu    *CPU
	thread *Thread
	// kickEv is the core's single standing execution event: dispatch,
	// wake-ups, and compute-span ends all reschedule it in place, so the
	// per-op scheduling path performs no allocation.
	kickEv sim.Event
	// busy tracks cumulative busy time for utilization accounting.
	busy    clock.Picos
	lastRun clock.Picos
}

// Thread returns the thread currently scheduled on the core, or nil.
func (c *Core) Thread() *Thread { return c.thread }

// CPU is the processor: cores plus the OS scheduler.
type CPU struct {
	eng *sim.Engine
	cfg Config
	dom clock.Domain
	mem mem.Port

	cores  []*Core
	ready  []*Thread // runnable threads not on a core
	nextID int
	alive  int // spawned minus exited

	// freeWaiters recycles queue-space retry callbacks (see spaceWaiter).
	freeWaiters *spaceWaiter
}

// New builds the processor. The quantum ticker starts with the first
// spawned thread and stops when every thread has exited.
func New(eng *sim.Engine, cfg Config, port mem.Port) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &CPU{eng: eng, cfg: cfg, dom: clock.NewDomain(cfg.Clock), mem: port}
	for i := 0; i < cfg.Cores; i++ {
		core := &Core{id: i, cpu: c}
		core.kickEv.Init(sim.HandlerFunc(core.advance))
		c.cores = append(c.cores, core)
	}
	return c
}

// Config reports the processor configuration.
func (c *CPU) Config() Config { return c.cfg }

// Domain reports the core clock domain.
func (c *CPU) Domain() clock.Domain { return c.dom }

// ActiveCores counts cores currently running a thread.
func (c *CPU) ActiveCores() int {
	n := 0
	for _, core := range c.cores {
		if core.thread != nil {
			n++
		}
	}
	return n
}

// Runnable counts live threads (running plus ready).
func (c *CPU) Runnable() int { return c.alive }

// Spawn creates a thread and schedules it. onExit, if non-nil, runs when
// the program finishes.
func (c *CPU) Spawn(name string, prog Program, onExit func()) *Thread {
	t := &Thread{ID: c.nextID, Name: name, prog: prog, onExit: onExit}
	t.loadDone = func(now clock.Picos) { t.complete(OpLoad) }
	t.storeDone = func(now clock.Picos) { t.complete(OpStore) }
	c.nextID++
	if c.alive == 0 {
		c.startQuantumTicker()
	}
	c.alive++
	if core := c.idleCore(); core != nil {
		c.assign(core, t)
	} else {
		c.ready = append(c.ready, t)
	}
	return t
}

func (c *CPU) idleCore() *Core {
	for _, core := range c.cores {
		if core.thread == nil {
			return core
		}
	}
	return nil
}

func (c *CPU) assign(core *Core, t *Thread) {
	core.thread = t
	core.lastRun = c.eng.Now()
	t.core = core
	core.kick()
}

// startQuantumTicker begins round-robin preemption; it self-terminates
// when no threads remain.
func (c *CPU) startQuantumTicker() {
	c.eng.Ticker(c.cfg.Quantum, func(now clock.Picos) bool {
		if c.alive == 0 {
			return false
		}
		c.rotate()
		return true
	})
}

// rotate implements the OS's fairness-first round-robin policy: at every
// quantum boundary all running threads move to the tail of the ready
// queue and the head of the queue is dispatched. When there are no more
// threads than cores this is a no-op reassignment.
func (c *CPU) rotate() {
	if len(c.ready) == 0 {
		return // nobody waiting: current threads keep their cores
	}
	now := c.eng.Now()
	for _, core := range c.cores {
		if core.thread != nil {
			t := core.thread
			core.accountBusy(now)
			// Preserve the unfinished part of an in-progress compute span;
			// the peeked pending operation stays peeked.
			if t.computeUntil > now {
				t.resumeCycles = c.dom.CyclesCeil(t.computeUntil - now)
			}
			t.computeUntil = 0
			core.thread = nil
			t.core = nil
			c.ready = append(c.ready, t)
		}
	}
	for _, core := range c.cores {
		if len(c.ready) == 0 {
			break
		}
		t := c.ready[0]
		c.ready = c.ready[1:]
		c.assign(core, t)
	}
}

// exit retires a finished thread and dispatches the next ready one.
func (c *CPU) exit(core *Core) {
	t := core.thread
	core.accountBusy(c.eng.Now())
	core.thread = nil
	t.core = nil
	t.done = true
	c.alive--
	if len(c.ready) > 0 {
		next := c.ready[0]
		c.ready = c.ready[1:]
		c.assign(core, next)
	}
	if t.onExit != nil {
		t.onExit()
	}
}

func (core *Core) accountBusy(now clock.Picos) {
	core.busy += now - core.lastRun
	core.lastRun = now
}

// BusyTime reports the core's cumulative scheduled time.
func (core *Core) BusyTime() clock.Picos {
	b := core.busy
	if core.thread != nil {
		b += core.cpu.eng.Now() - core.lastRun
	}
	return b
}

// Cores exposes the core array (read-only use).
func (c *CPU) Cores() []*Core { return c.cores }

// kick schedules the core's execution step now, pulling a pending
// span-end event forward if one is standing in the future.
func (core *Core) kick() {
	eng := core.cpu.eng
	if core.kickEv.Scheduled() && core.kickEv.When() <= eng.Now() {
		return
	}
	eng.Schedule(&core.kickEv, eng.Now())
}

// advance runs the scheduled thread until it blocks on a resource, starts
// a compute span, or exits.
func (core *Core) advance(now clock.Picos) {
	t := core.thread
	if t == nil {
		return // stale span-end for a descheduled thread
	}
	cpu := core.cpu
	if now < t.computeUntil {
		// A wake pulled the standing event into the middle of a span;
		// re-arm the span end.
		cpu.eng.Schedule(&core.kickEv, t.computeUntil)
		return
	}
	t.computeUntil = 0
	if t.resumeCycles > 0 {
		cycles := t.resumeCycles
		t.resumeCycles = 0
		core.startSpan(t, now, cycles)
		return
	}
	for {
		if !t.haveOp {
			if t.progEnded {
				cpu.exit(core)
				return
			}
			op, ok := t.prog.Next()
			if !ok {
				cpu.exit(core)
				return
			}
			t.pending = op
			t.haveOp = true
		}
		op := t.pending
		switch op.Kind {
		case OpCompute:
			t.haveOp = false
			if op.Cycles <= 0 {
				continue
			}
			core.startSpan(t, now, op.Cycles)
			return
		case OpBarrier:
			if t.totalOut > 0 {
				t.blocked = true
				return
			}
			t.haveOp = false
		case OpLoad, OpStore:
			// Loads occupy line-fill buffers; stores occupy store /
			// write-combining buffers. A full buffer stalls the thread
			// until a completion frees a slot.
			if op.Kind == OpLoad && t.loadsOut >= cpu.cfg.LoadBuffers ||
				op.Kind == OpStore && t.storesOut >= cpu.cfg.StoreBuffers {
				t.blocked = true
				return
			}
			req := t.rejected
			if req == nil {
				req = &mem.Req{}
			}
			t.rejected = nil
			*req = mem.Req{
				Addr:      mem.LineAlign(op.Addr),
				Cacheable: !op.NC,
			}
			if op.Kind == OpStore {
				req.Kind = mem.Write
				req.OnDone = t.storeDone
			} else {
				req.OnDone = t.loadDone
			}
			if !cpu.mem.TryEnqueue(req) {
				t.rejected = req
				cpu.mem.WaitSpace(cpu.spaceWaiter(core, t))
				return
			}
			if op.Kind == OpLoad {
				t.loadsOut++
			} else {
				t.storesOut++
			}
			t.totalOut++
			t.MemOps++
			t.haveOp = false
		default:
			panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
		}
	}
}

// startSpan begins a compute span of the given length, pulls the next
// program operation (see Program), and schedules the core's span-end
// step.
func (core *Core) startSpan(t *Thread, now clock.Picos, cycles int64) {
	cpu := core.cpu
	end := now + cpu.dom.Duration(cycles)
	t.computeUntil = end
	if !t.haveOp && !t.progEnded {
		if op, ok := t.prog.Next(); ok {
			t.pending = op
			t.haveOp = true
		} else {
			t.progEnded = true
		}
	}
	cpu.eng.Schedule(&core.kickEv, end)
}

// kickIfMine re-kicks the core if thread t is still scheduled on it.
func (core *Core) kickIfMine(t *Thread) {
	if core.thread == t {
		core.kick()
	}
}

// spaceWaiter is a pooled queue-space callback: when the memory port has
// room again it re-kicks core if thread is still scheduled there. fn is
// bound once per record, so a rejected enqueue registers its retry
// without allocating.
type spaceWaiter struct {
	cpu    *CPU
	core   *Core
	thread *Thread
	fn     func()
	next   *spaceWaiter // free list
}

// fire recycles the record, then re-kicks; a waiter fires at most once.
func (w *spaceWaiter) fire() {
	core, t := w.core, w.thread
	w.core, w.thread = nil, nil
	w.next = w.cpu.freeWaiters
	w.cpu.freeWaiters = w
	core.kickIfMine(t)
}

// spaceWaiter returns the one-shot retry callback for thread t on core.
func (c *CPU) spaceWaiter(core *Core, t *Thread) func() {
	w := c.freeWaiters
	if w == nil {
		w = &spaceWaiter{cpu: c}
		w.fn = w.fire
	} else {
		c.freeWaiters = w.next
		w.next = nil
	}
	w.core, w.thread = core, t
	return w.fn
}

// complete absorbs one memory-operation completion, waking the thread if
// it was blocked.
func (t *Thread) complete(kind OpKind) {
	if kind == OpLoad {
		t.loadsOut--
	} else {
		t.storesOut--
	}
	t.totalOut--
	if t.blocked {
		t.blocked = false
		if t.core != nil {
			t.core.kick()
		}
	}
}

// Now reports the current simulated time (convenience for workload
// orchestrators built on the CPU).
func (c *CPU) Now() clock.Picos { return c.eng.Now() }
