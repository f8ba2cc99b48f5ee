package isa

// Static analysis over programs: control-flow graph construction,
// basic blocks, and intra-block statically inferable dependences.
// ONTRAC's optimization O1 ("eliminate the storage of dependences
// within a basic block that can be directly inferred by static
// examination of the binary") consumes these results; the dynamic
// slicer re-infers the elided edges from them.

// BasicBlock is a maximal straight-line sequence of instructions.
type BasicBlock struct {
	Start int // first instruction index
	End   int // one past the last instruction index
	Succs []int
	Preds []int
}

// CFG is the static control-flow graph of a program.
type CFG struct {
	Prog    *Program
	Blocks  []BasicBlock
	BlockOf []int // instruction index -> block id
}

// BuildCFG computes basic blocks and their edges.
func BuildCFG(p *Program) *CFG {
	n := len(p.Instrs)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	markTarget := func(t int) {
		if t >= 0 && t < n {
			leader[t] = true
		}
	}
	for idx, ins := range p.Instrs {
		if ins.Op.HasTarget() {
			markTarget(ins.Target)
		}
		switch {
		case ins.Op.IsBranch(), ins.Op == HALT, ins.Op == FAIL:
			markTarget(idx + 1)
		}
	}
	// Label targets from the label map as well (indirect entries).
	for _, idx := range p.Labels {
		markTarget(idx)
	}
	cfg := &CFG{Prog: p, BlockOf: make([]int, n)}
	start := 0
	for idx := 1; idx <= n; idx++ {
		if idx == n || leader[idx] {
			id := len(cfg.Blocks)
			cfg.Blocks = append(cfg.Blocks, BasicBlock{Start: start, End: idx})
			for j := start; j < idx; j++ {
				cfg.BlockOf[j] = id
			}
			start = idx
		}
	}
	// Edges.
	addEdge := func(from, to int) {
		cfg.Blocks[from].Succs = append(cfg.Blocks[from].Succs, to)
		cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, from)
	}
	for bi := range cfg.Blocks {
		blk := &cfg.Blocks[bi]
		last := p.Instrs[blk.End-1]
		switch {
		case last.Op == BR:
			addEdge(bi, cfg.BlockOf[last.Target])
		case last.Op == HALT, last.Op == FAIL:
			// no successors
		case last.Op == RET, last.Op == BRR, last.Op == CALLR:
			// indirect/return edges are dynamic; none statically
		case last.Op.IsConditional():
			addEdge(bi, cfg.BlockOf[last.Target])
			if blk.End < n {
				addEdge(bi, cfg.BlockOf[blk.End])
			}
		case last.Op == CALL:
			addEdge(bi, cfg.BlockOf[last.Target])
			// The fall-through after return is a dynamic edge; we
			// conservatively add it so forward reachability holds.
			if blk.End < n {
				addEdge(bi, cfg.BlockOf[blk.End])
			}
		case last.Op == SPAWN:
			addEdge(bi, cfg.BlockOf[last.Target])
			if blk.End < n {
				addEdge(bi, cfg.BlockOf[blk.End])
			}
		default:
			if blk.End < n {
				addEdge(bi, cfg.BlockOf[blk.End])
			}
		}
	}
	return cfg
}

// StaticDep records that within one basic block, the instruction at
// index Use reads a register whose most recent writer inside the same
// block is the instruction at index Def. Such dependences are fully
// determined by the binary, so ONTRAC need not log them dynamically.
type StaticDep struct {
	Use int // instruction index of the reader
	Def int // instruction index of the in-block definer
}

// BlockStaticDeps computes, per basic block, the register dependences
// that static examination resolves. Memory dependences are never
// static (addresses are dynamic), and registers defined before block
// entry are unresolved statically.
//
// The returned map is keyed by block index.
func BlockStaticDeps(cfg *CFG) map[int][]StaticDep {
	out := make(map[int][]StaticDep, len(cfg.Blocks))
	p := cfg.Prog
	for bi := range cfg.Blocks {
		blk := &cfg.Blocks[bi]
		lastDef := map[uint8]int{} // register -> defining instr index
		var deps []StaticDep
		for idx := blk.Start; idx < blk.End; idx++ {
			ins := p.Instrs[idx]
			record := func(r uint8) {
				if def, ok := lastDef[r]; ok {
					deps = append(deps, StaticDep{Use: idx, Def: def})
				}
			}
			if ins.Op.ReadsRs1() {
				record(ins.Rs1)
			}
			if ins.Op.ReadsRs2() && (!ins.Op.ReadsRs1() || ins.Rs2 != ins.Rs1) {
				record(ins.Rs2)
			}
			if ins.Op.WritesRd() && ins.Rd != 0 {
				lastDef[ins.Rd] = idx
			}
		}
		if deps != nil {
			out[bi] = deps
		}
	}
	return out
}

// ImmediatePostdominators computes, per basic block, the immediate
// postdominator block id (-1 for exit blocks / no postdominator).
// Dynamic control-dependence detection (internal/cdep) uses this to
// know where a predicate's region of influence ends.
func ImmediatePostdominators(cfg *CFG) []int {
	n := len(cfg.Blocks)
	const none = -1
	ipdom := make([]int, n)
	// postdom sets via iterative dataflow (small programs; fine).
	post := make([][]bool, n)
	exits := []int{}
	for i := range post {
		post[i] = make([]bool, n)
	}
	for i := range cfg.Blocks {
		if len(cfg.Blocks[i].Succs) == 0 {
			exits = append(exits, i)
			post[i][i] = true
		} else {
			for j := 0; j < n; j++ {
				post[i][j] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			blk := &cfg.Blocks[i]
			if len(blk.Succs) == 0 {
				continue
			}
			newSet := make([]bool, n)
			for j := 0; j < n; j++ {
				newSet[j] = true
			}
			for _, s := range blk.Succs {
				for j := 0; j < n; j++ {
					newSet[j] = newSet[j] && post[s][j]
				}
			}
			newSet[i] = true
			for j := 0; j < n; j++ {
				if newSet[j] != post[i][j] {
					post[i] = newSet
					changed = true
					break
				}
			}
		}
	}
	_ = exits
	// Immediate postdominator: the postdominator (other than the
	// block itself) that is postdominated by all other postdominators.
	for i := 0; i < n; i++ {
		ipdom[i] = none
		var cands []int
		for j := 0; j < n; j++ {
			if j != i && post[i][j] {
				cands = append(cands, j)
			}
		}
		for _, c := range cands {
			immediate := true
			for _, d := range cands {
				if d != c && !post[d][c] {
					immediate = false
					break
				}
			}
			if immediate {
				ipdom[i] = c
				break
			}
		}
	}
	return ipdom
}
