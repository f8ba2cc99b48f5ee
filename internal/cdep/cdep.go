// Package cdep implements efficient online detection of dynamic
// control dependences (the [11] substrate of the paper: Xin & Zhang,
// "Efficient Online Detection of Dynamic Control Dependence").
//
// The tracker maintains, per thread, a stack of open predicate
// regions. Executing a conditional branch pushes a region that stays
// open until control reaches the branch's immediate postdominator at
// the same call depth; the top of the stack is the dynamic control
// parent of every instruction executed inside the region. Calls open
// a region that spans the callee, so callee instructions are
// (interprocedurally) control dependent on the call site.
package cdep

import "scaldift/internal/isa"

// Parent identifies the governing predicate instance of an executed
// instruction.
type Parent struct {
	// N is the per-thread dynamic instruction number of the
	// predicate (branch/call) instance; 0 means "no parent" (the
	// instruction is control dependent only on program entry).
	N uint64
	// PC is the predicate's static instruction index.
	PC int32
}

type region struct {
	parent Parent
	endPC  int  // region closes when this PC is reached...
	frame  int  // ...at this call depth
	isCall bool // call regions close on return (frame pop) instead
}

type threadState struct {
	stack []region
	frame int
}

// Tracker detects dynamic control dependences online. It is not a
// vm.Tool itself: the dependence trackers drive it, passing each
// executed instruction with its per-thread dynamic number.
type Tracker struct {
	// ipdomStart[pc] is the instruction index at which the region
	// opened by a conditional branch at pc closes (-1: never, open
	// until function return).
	ipdomStart []int
	threads    map[int]*threadState
}

// New builds a tracker for prog using its CFG's postdominator tree.
func New(prog *isa.Program) *Tracker {
	cfg := isa.BuildCFG(prog)
	ipdom := isa.ImmediatePostdominators(cfg)
	ipdomStart := make([]int, len(prog.Instrs))
	for pc := range prog.Instrs {
		b := cfg.BlockOf[pc]
		if ip := ipdom[b]; ip >= 0 {
			ipdomStart[pc] = cfg.Blocks[ip].Start
		} else {
			ipdomStart[pc] = -1
		}
	}
	return &Tracker{ipdomStart: ipdomStart, threads: make(map[int]*threadState)}
}

// ThreadTracker is one thread's view of a Tracker: its region stack
// plus the tracker's immutable postdominator tables.
type ThreadTracker struct {
	t *Tracker
	s *threadState
}

// Thread returns (creating if needed) the per-thread handle for tid.
func (t *Tracker) Thread(tid int) *ThreadTracker {
	s, ok := t.threads[tid]
	if !ok {
		s = &threadState{}
		t.threads[tid] = s
	}
	return &ThreadTracker{t: t, s: s}
}

// Observe processes one executed instruction of the handle's thread:
// pc is its static index, n its per-thread dynamic number, and op its
// opcode. It returns the instruction's dynamic control parent
// (computed before the instruction opens any region of its own).
//
// Observe must be called for every instruction the thread executes,
// in execution order.
func (tt *ThreadTracker) Observe(pc int, n uint64, op isa.Op) Parent {
	t, s := tt.t, tt.s
	// Close regions whose end has been reached at the same frame, or
	// whose frame has been popped entirely.
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if top.frame > s.frame {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if !top.isCall && top.frame == s.frame && top.endPC == pc {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		break
	}
	// A re-executed predicate (loop back edge) closes its own open
	// region and everything nested inside it: control left those
	// regions to come back around.
	if op.IsConditional() {
		for i := len(s.stack) - 1; i >= 0; i-- {
			r := &s.stack[i]
			if r.frame != s.frame {
				break
			}
			if !r.isCall && int(r.parent.PC) == pc {
				s.stack = s.stack[:i]
				break
			}
		}
	}
	var parent Parent
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1].parent
	}
	switch {
	case op.IsConditional():
		end := t.ipdomStart[pc]
		// A branch whose region is empty (immediately reconverges at
		// the next instruction and it IS the ipdom start) still opens
		// a region; the pop above closes it right away.
		s.stack = append(s.stack, region{
			parent: Parent{N: n, PC: int32(pc)},
			endPC:  end,
			frame:  s.frame,
		})
	case op == isa.CALL || op == isa.CALLR:
		s.stack = append(s.stack, region{
			parent: Parent{N: n, PC: int32(pc)},
			frame:  s.frame + 1,
			isCall: true,
			endPC:  -1,
		})
		s.frame++
	case op == isa.RET:
		s.frame--
		// Regions opened in the abandoned frame (including the call
		// region itself) close lazily at the top of the next Observe.
	}
	return parent
}
