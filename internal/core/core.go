// Package core implements the paper's primary contribution: the PIM-MMU —
// a Data Copy Engine (DCE) with an integrated PIM-aware Memory Scheduler
// (PIM-MS) and the software stack (runtime library + device driver model)
// that offloads DRAM<->PIM transfers to it (Section IV).
//
// The DCE (Fig. 9, Fig. 11) contains:
//   - an address buffer (64 KB SRAM) holding per-PIM-core transfer
//     descriptors: source base, destination core ID, and an offset counter;
//   - a data buffer (16 KB SRAM) staging lines between the read and write
//     halves of a copy;
//   - an Address Generation Unit (AGU) that walks descriptor offsets and
//     coordinates physical->DRAM translation with the memory controller;
//   - a preprocessing unit that transposes data on the fly (Fig. 3),
//     gathering the lanes of each PIM bank into whole 64-byte bursts;
//   - PIM-MS, which picks the issue order (internal/pimms, Algorithm 1).
//
// A transfer is modelled as two coupled line streams: the DRAM side (one
// sequential stream per PIM core's source/destination array) and the PIM
// side (one sequential stream per PIM *bank* — the lanes of a bank share
// every 64-byte burst, so the bank is the unit of PIM-side streaming).
// The data buffer couples them: reads may run ahead of writes by at most
// the buffer capacity, writes may never run ahead of the preprocessed
// read data.
//
// With PIM-MS disabled the engine degrades into a conventional DMA engine
// (Intel I/OAT / DSA class): descriptors processed strictly in order with
// a small in-flight window — the ablation's "Base+D" design point, which
// the paper shows can be slower than the software baseline.
package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/pim"
	"repro/internal/pimms"
	"repro/internal/sim"
)

// Direction of a transfer.
type Direction int

const (
	// DRAMToPIM copies input data into PIM cores' MRAM.
	DRAMToPIM Direction = iota
	// PIMToDRAM copies results back to DRAM.
	PIMToDRAM
)

func (d Direction) String() string {
	if d == PIMToDRAM {
		return "PIM->DRAM"
	}
	return "DRAM->PIM"
}

// Config parameterizes the PIM-MMU (Table I: 3.2 GHz DCE, 16 KB data
// buffer, 64 KB address buffer).
type Config struct {
	Clock clock.Hz
	// DataBufBytes is the staging SRAM between the read and write halves;
	// it bounds how far reads may run ahead of writes.
	DataBufBytes int
	// AddrBufBytes holds transfer descriptors; transfers with more
	// descriptors than fit are processed in address-buffer-sized batches.
	AddrBufBytes int
	// AddrEntryBytes is the SRAM cost of one descriptor (base address,
	// PIM core ID and offset counter, Fig. 11).
	AddrEntryBytes int
	// UsePIMMS enables the PIM-aware Memory Scheduler. Disabled, the DCE
	// behaves like a conventional DMA engine (sequential descriptors,
	// DMAWindow in-flight lines).
	UsePIMMS bool
	// DMAWindow is the in-flight line cap without PIM-MS: a conventional
	// DMA engine processes descriptors near-synchronously, giving it far
	// less memory-level parallelism than the baseline's eight OOO cores —
	// which is why "Base+D" can lose to plain software (Fig. 15).
	DMAWindow int
	// ChannelRRWithoutPIMMS, when set (and UsePIMMS is off), walks
	// descriptors channel round-robin instead of strictly sequentially —
	// the intermediate issue order of the DESIGN.md ablation, isolating
	// channel-level parallelism from Algorithm 1's bank interleave.
	ChannelRRWithoutPIMMS bool
	// Preproc models the hardware transpose unit.
	Preproc HWUnit
	// DriverLaunch is the software cost to invoke pim_mmu_transfer: the
	// runtime marshals the descriptor arrays and the driver writes them to
	// the DCE's MMIO BAR, then puts the calling process to sleep.
	DriverLaunch clock.Picos
	// DriverInterrupt is the completion path: DCE interrupt, driver wakes
	// the process.
	DriverInterrupt clock.Picos
	// BatchReload is the cost of refilling the address buffer for each
	// additional descriptor batch.
	BatchReload clock.Picos
}

// DefaultConfig matches Table I.
func DefaultConfig() Config {
	return Config{
		Clock:           3200 * clock.MHz,
		DataBufBytes:    16 << 10,
		AddrBufBytes:    64 << 10,
		AddrEntryBytes:  16,
		UsePIMMS:        true,
		DMAWindow:       4,
		Preproc:         DefaultHWUnit(),
		DriverLaunch:    3 * clock.Microsecond,
		DriverInterrupt: 2 * clock.Microsecond,
		BatchReload:     clock.Microsecond,
	}
}

// HWUnit models the DCE's pipelined preprocessing unit (Section IV-C). It
// transposes each 64-byte block (8 words by 8 byte lanes) so that a PIM
// core inside one x8 chip receives whole words (Fig. 3), at the cost of a
// pipeline fill plus BlocksPerCycle blocks per engine cycle.
type HWUnit struct {
	// PipelineDepth is the fill latency in DCE cycles.
	PipelineDepth int64
	// BlocksPerCycle is the sustained throughput.
	BlocksPerCycle int64
}

// DefaultHWUnit matches the DCE at 3.2 GHz: 4-stage pipeline, one 64-byte
// block per cycle (204.8 GB/s — never the bottleneck, by design).
func DefaultHWUnit() HWUnit {
	return HWUnit{PipelineDepth: 4, BlocksPerCycle: 1}
}

// Cycles reports the engine-cycle cost of streaming n blocks through the
// unit.
func (u HWUnit) Cycles(blocks int64) int64 {
	if blocks <= 0 {
		return 0
	}
	return u.PipelineDepth + (blocks+u.BlocksPerCycle-1)/u.BlocksPerCycle
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clock <= 0 || c.DataBufBytes < mem.LineBytes || c.AddrBufBytes < c.AddrEntryBytes ||
		c.AddrEntryBytes <= 0 || c.DMAWindow <= 0 {
		return fmt.Errorf("core: invalid DCE config: %+v", c)
	}
	return nil
}

// Op describes one offloaded transfer — the pim_mmu_op struct of
// Fig. 10(b): a direction, a per-core size, the PIM heap offset, and the
// per-core DRAM-side array addresses.
type Op struct {
	Dir Direction
	// BytesPerCore is XFER_PER_BANK in bytes (uniform across cores, as in
	// dpu_push_xfer); must be a multiple of 64.
	BytesPerCore uint64
	// MRAMOffset is the destination/source offset inside each core's MRAM
	// (DPU_MRAM_HEAP_POINTER_NAME + offset); must be line-group aligned
	// (a multiple of 64 covers every lane configuration).
	MRAMOffset uint64
	// Cores lists the participating PIM core IDs (dest_pim_id_arr).
	Cores []int
	// DRAMAddrs is the DRAM-side base address per core (src_arr); parallel
	// to Cores.
	DRAMAddrs []uint64
}

// Bytes sums the op's transfer size.
func (o Op) Bytes() uint64 { return o.BytesPerCore * uint64(len(o.Cores)) }

// Validate reports malformed ops.
func (o Op) Validate(g pim.Geometry) error {
	if len(o.Cores) == 0 {
		return fmt.Errorf("core: op with no cores")
	}
	if len(o.Cores) != len(o.DRAMAddrs) {
		return fmt.Errorf("core: %d cores but %d DRAM addresses", len(o.Cores), len(o.DRAMAddrs))
	}
	if o.BytesPerCore == 0 || o.BytesPerCore%mem.LineBytes != 0 {
		return fmt.Errorf("core: BytesPerCore=%d not a positive multiple of %d", o.BytesPerCore, mem.LineBytes)
	}
	if o.MRAMOffset%mem.LineBytes != 0 {
		return fmt.Errorf("core: MRAMOffset=0x%x not line aligned", o.MRAMOffset)
	}
	if mram := g.MRAMBytes(); o.MRAMOffset > mram || o.BytesPerCore > mram-o.MRAMOffset {
		return fmt.Errorf("core: transfer exceeds MRAM capacity")
	}
	seen := make(map[int]bool, len(o.Cores))
	for i, c := range o.Cores {
		if c < 0 || c >= g.NumCores() {
			return fmt.Errorf("core: core ID %d out of range", c)
		}
		if seen[c] {
			return fmt.Errorf("core: duplicate core %d in op", c)
		}
		seen[c] = true
		if o.DRAMAddrs[i]%mem.LineBytes != 0 {
			return fmt.Errorf("core: DRAM address 0x%x not line aligned", o.DRAMAddrs[i])
		}
	}
	return nil
}

// phase names the DCE's sequential transfer stages; one standing event
// walks them, so driver launch, batch reloads, and the completion
// interrupt never allocate.
type phase int

const (
	phaseIdle phase = iota
	// phaseLaunch: the driver has written the descriptors; start batch 0.
	phaseLaunch
	// phaseReload: the address buffer is being refilled for the next batch.
	phaseReload
	// phaseInterrupt: the completion interrupt is being delivered.
	phaseInterrupt
)

// transferState is the in-flight transfer (the engine serializes
// transfers, so there is at most one).
type transferState struct {
	op       Op
	onDone   func()
	from     int // next undispatched descriptor index
	batchCap int
}

// Engine is the DCE hardware model.
//
// On a sharded engine the DCE schedules its standing events on its own
// "dce" lane: every DCE event (driver phases, the preprocessing drain)
// pumps the batch pipeline into the memory system, so all of them are
// crossings. The lane gives the DCE its own ShardStats row.
type Engine struct {
	eng   *sim.Engine
	sched sim.Scheduler // the DCE's event lane (the engine when not laned)
	sys   *memsys.System
	geom  pim.Geometry
	cfg   Config
	dom   clock.Domain

	busy    bool
	phaseEv sim.Event
	phase   phase
	cur     transferState
	batch   *batchRun

	// freeReq recycles line-request records (request + completion
	// callback), so the per-line issue path performs no allocation.
	freeReq *dceReq

	// preprocQ defers read-side lines through the preprocessing unit
	// (on-the-fly transpose). The unit's per-line latency is constant, so
	// readiness is FIFO and one standing event drains the queue.
	preprocQ    []clock.Picos
	preprocHead int
	preprocEv   sim.Event

	// TransfersDone and BytesMoved accumulate across transfers.
	TransfersDone uint64
	BytesMoved    uint64
}

// New builds a DCE attached to a memory system.
func New(eng *sim.Engine, sys *memsys.System, geom pim.Geometry, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{eng: eng, sched: eng.NewLane("dce"), sys: sys, geom: geom, cfg: cfg, dom: clock.NewDomain(cfg.Clock)}
	e.phaseEv.Init(sim.HandlerFunc(e.onPhase))
	e.preprocEv.Init(sim.HandlerFunc(e.firePreproc))
	return e, nil
}

// Transfer offloads op to the DCE. onDone runs when the completion
// interrupt is delivered, so the transfer's span includes the driver's
// launch and interrupt costs. The engine serializes transfers; calling
// Transfer while busy is a programming error in the (single-threaded)
// runtime and panics, as does an invalid op.
func (e *Engine) Transfer(op Op, onDone func()) {
	if e.busy {
		panic("core: DCE transfer while busy")
	}
	if err := op.Validate(e.geom); err != nil {
		panic(err)
	}
	e.busy = true
	e.cur = transferState{
		op:       op,
		onDone:   onDone,
		batchCap: e.cfg.AddrBufBytes / e.cfg.AddrEntryBytes,
	}
	e.phase = phaseLaunch
	e.sched.Schedule(&e.phaseEv, e.eng.Now()+e.cfg.DriverLaunch)
}

// onPhase advances the transfer's sequential stages.
func (e *Engine) onPhase(clock.Picos) {
	switch e.phase {
	case phaseLaunch, phaseReload:
		e.startBatch()
	case phaseInterrupt:
		st := e.cur
		e.phase = phaseIdle
		e.cur = transferState{}
		e.busy = false
		e.TransfersDone++
		e.BytesMoved += st.op.Bytes()
		st.onDone()
	default:
		panic("core: phase event while idle")
	}
}

// startBatch dispatches the next address-buffer-sized descriptor batch.
func (e *Engine) startBatch() {
	from := e.cur.from
	to := from + e.cur.batchCap
	if to > len(e.cur.op.Cores) {
		to = len(e.cur.op.Cores)
	}
	e.cur.from = to
	e.runBatch(e.cur.op, from, to)
}

// batchDone sequences the follow-on of a drained batch: an address-buffer
// reload when descriptors remain, the completion interrupt otherwise.
func (e *Engine) batchDone() {
	e.batch = nil
	if e.cur.from < len(e.cur.op.Cores) {
		e.phase = phaseReload
		e.sched.Schedule(&e.phaseEv, e.eng.Now()+e.cfg.BatchReload)
		return
	}
	e.phase = phaseInterrupt
	e.sched.Schedule(&e.phaseEv, e.eng.Now()+e.cfg.DriverInterrupt)
}

// streams derives the two stream sets for cores[from:to]: the DRAM-side
// per-core streams and the PIM-side per-bank streams.
func (e *Engine) streams(op Op, from, to int) (coreSide, bankSide []pimms.Stream) {
	for i := from; i < to; i++ {
		coreSide = append(coreSide, pimms.Stream{
			Core: op.Cores[i], Base: op.DRAMAddrs[i], Bytes: op.BytesPerCore,
		})
	}
	for _, b := range e.geom.Banks(op.Cores[from:to]) {
		// Round partial-lane banks up to whole lines: the hardware writes
		// full bursts regardless of how many lanes carry live data.
		bytes := (uint64(len(b.Members))*op.BytesPerCore + mem.LineBytes - 1) &^ uint64(mem.LineBytes-1)
		bankSide = append(bankSide, pimms.Stream{
			Core:  b.Rep,
			Base:  e.geom.BankLineAddr(b.Rep, op.MRAMOffset),
			Bytes: bytes,
		})
	}
	return coreSide, bankSide
}

// DRAMChunkLines is how many consecutive lines the AGU walks within one
// DRAM-side descriptor before rotating to the next (4 KB). Under the
// MLP-centric mapping a sequential 4 KB chunk already spreads across all
// channels and bank groups, so chunking costs no parallelism while
// keeping the row buffer hot; the PIM side instead needs Algorithm 1's
// line-granular bank rotation because its locality-centric mapping has no
// in-chunk spreading to offer.
const DRAMChunkLines = 64

// runBatch executes one address-buffer-resident batch to completion.
func (e *Engine) runBatch(op Op, from, to int) {
	coreSide, bankSide := e.streams(op, from, to)
	readStreams, writeStreams := coreSide, bankSide
	if op.Dir == PIMToDRAM {
		readStreams, writeStreams = bankSide, coreSide
	}
	build := func(streams []pimms.Stream, pimSide bool) []pimms.Iterator {
		if !e.cfg.UsePIMMS {
			if e.cfg.ChannelRRWithoutPIMMS {
				return []pimms.Iterator{pimms.NewChannelRR(e.geom, streams)}
			}
			return []pimms.Iterator{pimms.NewSequential(e.geom, streams)}
		}
		if !pimSide {
			return []pimms.Iterator{pimms.NewChunked(e.geom, streams, DRAMChunkLines)}
		}
		var its []pimms.Iterator
		for _, it := range pimms.NewAlgorithm1(e.geom, streams) {
			if it.Remaining() > 0 {
				its = append(its, it)
			}
		}
		return its
	}
	buf := uint64(e.cfg.DataBufBytes)
	if !e.cfg.UsePIMMS && buf > uint64(e.cfg.DMAWindow*mem.LineBytes) {
		buf = uint64(e.cfg.DMAWindow * mem.LineBytes)
	}
	b := &batchRun{
		e:          e,
		readIts:    build(readStreams, op.Dir == PIMToDRAM),
		writeIts:   build(writeStreams, op.Dir == DRAMToPIM),
		totalRead:  pimms.TotalLines(readStreams) * mem.LineBytes,
		totalWrite: pimms.TotalLines(writeStreams) * mem.LineBytes,
		bufBytes:   buf,
	}
	b.resumeR = func() {
		b.readStalled = false
		b.pump()
	}
	b.resumeW = func() {
		b.writeStalled = false
		b.pump()
	}
	e.batch = b
	b.pump()
}

// dceReq is a pooled line request: the mem.Req plus its completion
// callback, created once and recycled through the engine's free list so
// the per-line data path performs no allocation.
type dceReq struct {
	req  mem.Req
	e    *Engine
	read bool
	next *dceReq
}

// takeReq pops a recycled request record or creates one.
func (e *Engine) takeReq() *dceReq {
	dr := e.freeReq
	if dr == nil {
		dr = &dceReq{e: e}
		dr.req.OnDone = dr.complete
	} else {
		e.freeReq = dr.next
		dr.next = nil
	}
	return dr
}

// complete is the shared completion callback. The channel has finished
// with the request when it fires, so the record recycles immediately; the
// active batch then absorbs the completion.
func (dr *dceReq) complete(now clock.Picos) {
	e := dr.e
	read := dr.read
	dr.next = e.freeReq
	e.freeReq = dr
	b := e.batch
	if read {
		// Stream through the preprocessing unit (on-the-fly transpose),
		// then make the line available to the write side.
		e.queuePreproc(now)
		return
	}
	b.writesDone += mem.LineBytes
	b.pump()
}

// queuePreproc enters one arrived read line into the preprocessing
// pipeline. The unit's latency is constant, so ready times are FIFO.
func (e *Engine) queuePreproc(now clock.Picos) {
	at := now + e.dom.Duration(e.cfg.Preproc.Cycles(1))
	e.preprocQ = append(e.preprocQ, at)
	if !e.preprocEv.Scheduled() {
		e.sched.Schedule(&e.preprocEv, at)
	}
}

// firePreproc retires every preprocessed line that has matured and lets
// the batch pump the freed data-buffer space.
func (e *Engine) firePreproc(now clock.Picos) {
	n := uint64(0)
	for e.preprocHead < len(e.preprocQ) && e.preprocQ[e.preprocHead] <= now {
		e.preprocHead++
		n++
	}
	if e.preprocHead == len(e.preprocQ) {
		e.preprocQ = e.preprocQ[:0]
		e.preprocHead = 0
	} else {
		e.sched.Schedule(&e.preprocEv, e.preprocQ[e.preprocHead])
	}
	b := e.batch
	b.readsDone += n * mem.LineBytes
	b.pump()
}

// batchRun is the in-flight state of one batch: the read-side and
// write-side iterators coupled through the data buffer.
type batchRun struct {
	e                 *Engine
	readIts, writeIts []pimms.Iterator
	rrR, rrW          int
	// heldR/heldW is the granule the port last turned away on each side,
	// valid while hasR/hasW; it issues first when the side resumes.
	heldR, heldW pimms.Granule
	hasR, hasW   bool
	// resumeR/resumeW are the sides' queue-space retry callbacks, bound
	// once per batch.
	resumeR, resumeW func()

	readsIssued, readsDone   uint64 // bytes
	writesIssued, writesDone uint64 // bytes
	totalRead, totalWrite    uint64
	bufBytes                 uint64

	readStalled, writeStalled bool
	finished                  bool
}

func take(its []pimms.Iterator, rr *int, held *pimms.Granule, has *bool) (pimms.Granule, bool) {
	if *has {
		*has = false
		return *held, true
	}
	n := len(its)
	for scanned := 0; scanned < n; scanned++ {
		it := its[*rr]
		*rr = (*rr + 1) % n
		if g, ok := it.Next(); ok {
			return g, true
		}
	}
	return pimms.Granule{}, false
}

// pump advances both halves of the pipeline as far as resources allow.
func (b *batchRun) pump() {
	// Write side: issue while preprocessed data is available (or reads
	// have finished and the tail is draining).
	for !b.writeStalled {
		if b.writesIssued+mem.LineBytes > b.readsDone && b.readsDone < b.totalRead {
			break
		}
		if b.writesIssued >= b.totalWrite {
			break
		}
		g, ok := take(b.writeIts, &b.rrW, &b.heldW, &b.hasW)
		if !ok {
			break
		}
		if !b.issueWrite(g) {
			b.heldW, b.hasW = g, true
			b.writeStalled = true
			b.e.sys.WaitSpace(b.resumeW)
			break
		}
		b.writesIssued += mem.LineBytes
	}
	// Read side: issue while the data buffer has room.
	for !b.readStalled {
		if b.readsIssued-b.writesDone+mem.LineBytes > b.bufBytes {
			break
		}
		g, ok := take(b.readIts, &b.rrR, &b.heldR, &b.hasR)
		if !ok {
			break
		}
		if !b.issueRead(g) {
			b.heldR, b.hasR = g, true
			b.readStalled = true
			b.e.sys.WaitSpace(b.resumeR)
			break
		}
		b.readsIssued += mem.LineBytes
	}
	b.finishIfDrained()
}

// issueRead sends one read-side line. DCE traffic bypasses the LLC in
// both directions.
func (b *batchRun) issueRead(g pimms.Granule) bool {
	return b.issue(g, mem.Read, true)
}

// issueWrite sends one write-side line.
func (b *batchRun) issueWrite(g pimms.Granule) bool {
	return b.issue(g, mem.Write, false)
}

func (b *batchRun) issue(g pimms.Granule, kind mem.Kind, read bool) bool {
	dr := b.e.takeReq()
	dr.read = read
	dr.req.Addr = g.Addr
	dr.req.Kind = kind
	dr.req.Cacheable = false
	if b.e.sys.TryEnqueue(&dr.req) {
		return true
	}
	// Rejected: the channel never saw the record, recycle it now.
	dr.next = b.e.freeReq
	b.e.freeReq = dr
	return false
}

// finishIfDrained hands the batch back to the engine once everything is
// done.
func (b *batchRun) finishIfDrained() {
	if b.finished || b.writesDone < b.totalWrite || b.readsDone < b.totalRead {
		return
	}
	b.finished = true
	b.e.batchDone()
}
