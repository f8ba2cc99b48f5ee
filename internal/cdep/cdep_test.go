package cdep

import (
	"testing"

	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// observeRun executes prog and returns the control parent PC recorded
// for every executed instruction, in order, with the executed PCs.
func observeRun(t *testing.T, prog *isa.Program, inputs []int64) (pcs []int, parents []Parent) {
	t.Helper()
	tr := New(prog)
	m := vm.MustNew(prog, vm.Config{})
	m.SetInput(0, inputs)
	var tseq uint64
	m.AttachTool(vm.ToolFunc(func(_ *vm.Machine, ev *vm.Event) {
		if ev.Blocked {
			return
		}
		tseq++
		p := tr.Thread(ev.TID).Observe(ev.PC, tseq, ev.Instr.Op)
		pcs = append(pcs, ev.PC)
		parents = append(parents, p)
	}))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	return pcs, parents
}

func TestDiamondControlDeps(t *testing.T) {
	prog := isa.MustAssemble("d", `
    in r1, 0
    beqz r1, elseb
    movi r2, 1
    br join
elseb:
    movi r2, 2
join:
    out r2, 1
    halt
`)
	pcs, parents := observeRun(t, prog, []int64{1})
	// Executed: in(0), beqz(1), movi r2,1(2), br(3), out(5), halt(6).
	find := func(pc int) Parent {
		for i := range pcs {
			if pcs[i] == pc {
				return parents[i]
			}
		}
		t.Fatalf("pc %d not executed (%v)", pc, pcs)
		return Parent{}
	}
	if find(0) != (Parent{}) {
		t.Fatal("entry instruction should have no parent")
	}
	if p := find(2); p.PC != 1 {
		t.Fatalf("then-arm parent PC = %d, want 1", p.PC)
	}
	// The join point is NOT control dependent on the branch.
	if p := find(5); p != (Parent{}) {
		t.Fatalf("join parent = %+v, want none", p)
	}

	// Else path.
	pcs, parents = observeRun(t, prog, []int64{0})
	if p := find(4); p.PC != 1 {
		t.Fatalf("else-arm parent PC = %d, want 1", p.PC)
	}
}

func TestLoopBodyDependsOnHeader(t *testing.T) {
	prog := isa.MustAssemble("l", `
    in r1, 0
    movi r3, 0
loop:
    bge r3, r1, done
    addi r3, r3, 1
    br loop
done:
    halt
`)
	pcs, parents := observeRun(t, prog, []int64{3})
	bodyCount, ok := 0, true
	for i := range pcs {
		if pcs[i] == 3 { // addi in body
			bodyCount++
			if parents[i].PC != 2 {
				ok = false
			}
		}
	}
	if bodyCount != 3 || !ok {
		t.Fatalf("body executed %d times, deps on header ok=%v", bodyCount, ok)
	}
	// The instruction after the loop is not control dependent on it.
	for i := range pcs {
		if pcs[i] == 5 && parents[i] != (Parent{}) {
			t.Fatalf("post-loop parent = %+v", parents[i])
		}
	}
}

func TestLoopStackDoesNotGrow(t *testing.T) {
	prog := isa.MustAssemble("l", `
    movi r1, 10000
    movi r3, 0
loop:
    bge r3, r1, done
    addi r3, r3, 1
    br loop
done:
    halt
`)
	tr := New(prog)
	m := vm.MustNew(prog, vm.Config{})
	var tseq uint64
	maxDepth := 0
	m.AttachTool(vm.ToolFunc(func(_ *vm.Machine, ev *vm.Event) {
		tseq++
		tr.Thread(ev.TID).Observe(ev.PC, tseq, ev.Instr.Op)
		if d := len(tr.threads[ev.TID].stack); d > maxDepth {
			maxDepth = d
		}
	}))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if maxDepth > 3 {
		t.Fatalf("region stack grew to %d on a simple loop", maxDepth)
	}
}

func TestCalleeDependsOnCallSite(t *testing.T) {
	prog := isa.MustAssemble("c", `
    br main
.func f
    addi r2, r1, 1
    ret
.endfunc
main:
    movi r1, 5
    call f
    out r2, 0
    halt
`)
	pcs, parents := observeRun(t, prog, nil)
	callPC := -1
	for i, ins := range prog.Instrs {
		if ins.Op == isa.CALL {
			callPC = i
		}
	}
	foundBody := false
	for i := range pcs {
		if pcs[i] == 1 { // addi inside f
			foundBody = true
			if int(parents[i].PC) != callPC {
				t.Fatalf("callee parent PC = %d, want call site %d", parents[i].PC, callPC)
			}
		}
	}
	if !foundBody {
		t.Fatal("callee body never executed")
	}
	// After the return, the call region is closed: out has no parent.
	for i := range pcs {
		if prog.Instrs[pcs[i]].Op == isa.OUT && parents[i] != (Parent{}) {
			t.Fatalf("post-call instruction parent = %+v", parents[i])
		}
	}
}

func TestNestedBranchesInCallee(t *testing.T) {
	prog := isa.MustAssemble("n", `
    br main
.func g
    beqz r1, gelse
    movi r2, 1
    br gend
gelse:
    movi r2, 2
gend:
    ret
.endfunc
main:
    movi r1, 1
    call g
    movi r1, 0
    call g
    halt
`)
	pcs, parents := observeRun(t, prog, nil)
	branchPC := 1 // beqz inside g
	for i := range pcs {
		switch pcs[i] {
		case 2, 4: // the two arms
			if int(parents[i].PC) != branchPC {
				t.Fatalf("arm at pc %d has parent %d, want %d", pcs[i], parents[i].PC, branchPC)
			}
		}
	}
	// Distinct call instances yield distinct parent instance numbers
	// for the branch.
	var branchParents []uint64
	for i := range pcs {
		if pcs[i] == branchPC {
			branchParents = append(branchParents, parents[i].N)
		}
	}
	if len(branchParents) != 2 || branchParents[0] == branchParents[1] {
		t.Fatalf("branch parents = %v, want two distinct call instances", branchParents)
	}
}

func TestPerThreadIsolation(t *testing.T) {
	prog := isa.MustAssemble("p", `
    movi r10, 0
    spawn r20, r10, child
    movi r1, 1
    beqz r1, skip
    movi r2, 1
skip:
    join r20
    halt
child:
    movi r1, 0
    beqz r1, cskip
    movi r2, 9
cskip:
    halt
`)
	tr := New(prog)
	m := vm.MustNew(prog, vm.Config{Seed: 3, Quantum: 1})
	counts := map[int]uint64{}
	bad := false
	m.AttachTool(vm.ToolFunc(func(_ *vm.Machine, ev *vm.Event) {
		if ev.Blocked {
			return
		}
		counts[ev.TID]++
		p := tr.Thread(ev.TID).Observe(ev.PC, counts[ev.TID], ev.Instr.Op)
		// movi r2,1 at pc 4 belongs to thread 0 under branch pc 3;
		// if thread state leaked the parent could be the child's
		// branch at pc 8.
		if ev.PC == 4 && p.PC != 3 {
			bad = true
		}
	}))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if bad {
		t.Fatal("cross-thread control-dependence leak")
	}
}
