// Package plan implements the inspector–executor complement to the SPRAY
// strategies: a plan-compiled reducer that records one parallel region's
// per-thread update stream, compiles it into a race-free execution plan,
// and replays every subsequent identical region without paying the inner
// strategy's conflict resolution (atomics, claims, queues) again.
//
// The model is MKL's sparse inspector/executor, the paper's strongest
// repeated-reduction comparator: iterative workloads (tMV time loops, FEM
// assembly, convolution backprop) replay an identical index pattern every
// iteration, so conflict structure can be discovered once and amortized.
//
// Lifecycle:
//
//   - record: the wrapper forwards every Add/AddN/Scatter to the inner
//     strategy (which produces the region's result as usual) while a
//     per-thread tape captures the op stream — the same hook shape as the
//     advisor's Tape, but keeping op boundaries and program order, not
//     just touch counts.
//   - compile: at the record region's finalize, destinations are
//     partitioned into keeper-style static ownership ranges. Each
//     thread's stream is classified once: owned elements need no plan
//     (the executor applies them in place), foreign elements are assigned
//     a flat slot in the thread's exchange buffer, and per-owner exchange
//     lists (destination + slot) are laid out so the merge is a gather.
//   - execute: the inner strategy is bypassed entirely. Each thread
//     verifies its incoming ops against the tape (O(1) per AddN run, one
//     slice compare per Scatter batch), applies owned elements directly
//     to the target — single writer per ownership range, no
//     synchronization — and copies foreign values into its exchange
//     buffer in program order. Finalize merges the exchange lists per
//     owner: for owner o, source threads are walked in ascending tid and
//     each source's contributions in program order, so the result is
//     deterministic across runs of the same plan.
//   - invalidate: any deviation (unseen index, reshaped batch, missing
//     or extra ops, a recorded thread absent from the region) flips the
//     region to invalid. The deviating thread captures its remaining
//     stream in an overflow tape; finalize merges the threads that still
//     verified, serially replays the deviators' buffered prefix and
//     overflow (exactly-once, determinism waived for that one region),
//     and drops back to record mode. Repeated invalidation degrades to a
//     permanent passthrough so a pattern-unstable workload pays only the
//     forwarding overhead.
//
// This file holds the tape (record side) and the compiled program
// (inspect side); exec.go holds the executor hot loops and planned.go the
// reducer wrapper.
package plan

import "math"

// opKind discriminates the three record shapes. Element-wise Adds are
// coalesced into one opSeq run per uninterrupted sequence; AddN keeps
// only (base, n) since the destinations are implied; Scatter keeps the
// gathered index batch verbatim.
type opKind uint8

const (
	opSeq     opKind = iota // consecutive element-wise Adds; indices in tape.idx
	opAddN                  // contiguous run: destinations base..base+n-1
	opScatter               // gathered batch; indices in tape.idx
)

// op is one recorded bulk submission. off indexes tape.idx for the kinds
// that store destinations explicitly (opSeq, opScatter); opAddN encodes
// its destinations as base/n alone, which is what makes executor
// verification of contiguous runs O(1).
type op struct {
	off  int64
	base int32
	n    int32
	kind opKind
}

// tape is one thread's recorded update stream: the op sequence plus the
// flat destination array backing seq and scatter ops. Capacity is
// retained across re-records (capacity-retention rule).
type tape struct {
	ops   []op
	idx   []int32
	elems int64
}

func (tp *tape) reset() {
	tp.ops = tp.ops[:0]
	tp.idx = tp.idx[:0]
	tp.elems = 0
}

// recAdd records one element-wise update, extending the current opSeq run
// when the previous call was also an Add (its destinations are then
// guaranteed to sit at the tail of tp.idx).
func (tp *tape) recAdd(i int) {
	if k := len(tp.ops) - 1; k >= 0 && tp.ops[k].kind == opSeq {
		tp.ops[k].n++
	} else {
		tp.ops = append(tp.ops, op{kind: opSeq, off: int64(len(tp.idx)), n: 1})
	}
	tp.idx = append(tp.idx, int32(i))
	tp.elems++
}

// recAddN records a contiguous run. Adjacent runs are deliberately not
// coalesced: the executor verifies call-by-call, so the tape must mirror
// the workload's submission boundaries exactly.
func (tp *tape) recAddN(base, n int) {
	if n == 0 {
		return
	}
	tp.ops = append(tp.ops, op{kind: opAddN, base: int32(base), n: int32(n)})
	tp.elems += int64(n)
}

// recScatter records a gathered batch verbatim.
func (tp *tape) recScatter(idx []int32) {
	if len(idx) == 0 {
		return
	}
	tp.ops = append(tp.ops, op{kind: opScatter, off: int64(len(tp.idx)), n: int32(len(idx))})
	tp.idx = append(tp.idx, idx...)
	tp.elems += int64(len(idx))
}

// program is one compiled execution plan. Ownership is the keeper's
// static partition: chunk = ceil(n/threads), owner(i) = i/chunk, thread t
// owns [lo(t), hi(t)). Per source thread t, fgn[t] lists the destinations
// of t's foreign elements in program order — slot k of t's exchange
// buffer belongs to destination fgn[t][k]. Per owner o and source t,
// exIdx[o][t]/exPos[o][t] are the same elements regrouped for the merge:
// out[exIdx[o][t][k]] += exchange(t)[exPos[o][t][k]].
type program struct {
	n       int
	threads int
	chunk   int
	epoch   int64 // team region epoch the plan was compiled at

	fgn   [][]int32   // [src] foreign destinations, program order
	exIdx [][][]int32 // [owner][src] destinations
	exPos [][][]int32 // [owner][src] exchange slots

	owned   int64 // elements the executor applies in place
	foreign int64 // elements routed through exchange buffers
	bytes   int64 // compiled footprint (plan arrays only)
}

// ownRange returns thread tid's static ownership interval [lo, hi).
func (p *program) ownRange(tid int) (lo, hi int) {
	lo = tid * p.chunk
	if lo > p.n {
		lo = p.n
	}
	hi = lo + p.chunk
	if hi > p.n {
		hi = p.n
	}
	return lo, hi
}

// compileProgram builds the execution plan from the recorded tapes.
// Returns nil when the pattern cannot be planned (a thread's foreign
// element count overflows the int32 slot range) — the caller then
// degrades to passthrough.
func compileProgram(tapes []tape, n, threads int) *program {
	chunk := (n + threads - 1) / threads
	if chunk < 1 {
		chunk = 1
	}
	p := &program{
		n:       n,
		threads: threads,
		chunk:   chunk,
		fgn:     make([][]int32, threads),
		exIdx:   make([][][]int32, threads),
		exPos:   make([][][]int32, threads),
	}
	for o := 0; o < threads; o++ {
		p.exIdx[o] = make([][]int32, threads)
		p.exPos[o] = make([][]int32, threads)
	}
	for t := range tapes {
		tp := &tapes[t]
		slot := 0
		route := func(i int32) bool {
			ow := int(i) / chunk
			if ow == t {
				return true
			}
			if slot > math.MaxInt32 {
				return false
			}
			p.fgn[t] = append(p.fgn[t], i)
			p.exIdx[ow][t] = append(p.exIdx[ow][t], i)
			p.exPos[ow][t] = append(p.exPos[ow][t], int32(slot))
			slot++
			return true
		}
		for k := range tp.ops {
			o := &tp.ops[k]
			switch o.kind {
			case opAddN:
				// Walk the run by owner segment; only foreign segments
				// consume exchange slots, still in ascending (= program)
				// order.
				base, end := int(o.base), int(o.base)+int(o.n)
				for s := base; s < end; {
					ow := s / chunk
					segEnd := min(end, (ow+1)*chunk)
					if ow != t {
						for i := s; i < segEnd; i++ {
							if !route(int32(i)) {
								return nil
							}
						}
					}
					s = segEnd
				}
			default: // opSeq, opScatter: explicit destinations
				for _, i := range tp.idx[o.off : o.off+int64(o.n)] {
					if !route(i) {
						return nil
					}
				}
			}
		}
		p.foreign += int64(slot)
		p.owned += tp.elems - int64(slot)
	}
	for t := 0; t < threads; t++ {
		p.bytes += 4 * int64(len(p.fgn[t]))
		for o := 0; o < threads; o++ {
			p.bytes += 8 * int64(len(p.exIdx[o][t]))
		}
	}
	return p
}

// tapeBytes reports the retained recording footprint, for the wrapper's
// memory accounting.
func tapeBytes(tapes []tape) int64 {
	var b int64
	for t := range tapes {
		b += 24*int64(cap(tapes[t].ops)) + 4*int64(cap(tapes[t].idx))
	}
	return b
}
