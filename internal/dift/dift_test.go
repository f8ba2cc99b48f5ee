package dift

import (
	"testing"

	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

func runBool(t *testing.T, text string, inputs []int64) (*Engine[bool], *CollectSink[bool], *vm.Machine) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, inputs)
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	sink := &CollectSink[bool]{}
	e.AddSink(sink)
	m.AttachTool(e)
	res := m.Run()
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	return e, sink, m
}

func TestBoolTaintFlowsToOutput(t *testing.T) {
	_, sink, _ := runBool(t, `
    in r1, 0
    movi r2, 5
    add r3, r1, r2   ; tainted
    out r3, 1        ; tainted output
    out r2, 1        ; clean output
    halt
`, []int64{9})
	if len(sink.Outputs) != 2 || !sink.Outputs[0] || sink.Outputs[1] {
		t.Fatalf("outputs = %v, want [true false]", sink.Outputs)
	}
}

func TestTaintThroughMemory(t *testing.T) {
	e, sink, _ := runBool(t, `
    in r1, 0
    store r0, r1, 10
    load r2, r0, 10
    out r2, 1
    halt
`, []int64{3})
	if !sink.Outputs[0] {
		t.Fatal("taint lost through memory")
	}
	if e.MemTaint(10) != true {
		t.Fatal("memory word 10 should be tainted")
	}
	if e.TaintedWords() != 1 {
		t.Fatalf("tainted words = %d", e.TaintedWords())
	}
}

func TestConstClearsTaint(t *testing.T) {
	_, sink, _ := runBool(t, `
    in r1, 0
    movi r1, 7       ; overwrite: untaint
    out r1, 1
    halt
`, []int64{3})
	if sink.Outputs[0] {
		t.Fatal("MOVI should clear taint")
	}
}

// TestStickyConstPolicy pins that labels do not stick across a
// constant write even in a domain whose Transfer manufactures labels:
// under PC taint a MOVI over a tainted register, and a successful CAS
// (which stores the constant Imm) over a tainted cell, leave the zero
// label, not the writing statement's.
func TestStickyConstPolicy(t *testing.T) {
	p := isa.MustAssemble("t", `
.data 0
    in r1, 0            ; tainted, value 5
    store r0, r1, 0     ; mem[0] = 5, tainted
    movi r1, 7          ; constant over a tainted register
    movi r2, 5
    cas r3, r0, r2, 9   ; succeeds: constant over a tainted cell
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[PCLabel](PC{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if m.Mem[0] != 9 {
		t.Fatal("CAS should have succeeded")
	}
	if got := e.RegTaint(0, 1); got != 0 {
		t.Fatalf("PC taint of r1 after MOVI = %d, want 0", got)
	}
	if got := e.MemTaint(0); got != 0 {
		t.Fatalf("PC taint of the swapped cell = %d, want 0", got)
	}
	if got, want := e.RegTaint(0, 3), PCLabel(p.Instrs[4].Line); got != want {
		t.Fatalf("PC taint of the CAS destination = %d, want %d (the old value flowed)", got, want)
	}
}

// TestAddressTaintPolicy pins that a tainted address does not taint
// the value loaded through it: only the cell's label flows.
func TestAddressTaintPolicy(t *testing.T) {
	_, sink, _ := runBool(t, `
.data 11, 22, 33, 44
    in r1, 0          ; tainted index
    load r2, r1, 0    ; value at tainted address
    out r2, 1
    halt
`, []int64{2})
	if sink.Outputs[0] {
		t.Fatal("the loaded value took the address register's taint")
	}
}

func TestTaintAcrossThreads(t *testing.T) {
	_, sink, _ := runBool(t, `
.data 0, 0
    in r10, 0
    spawn r20, r10, child
    join r20
    load r3, r0, 1
    out r3, 1
    halt
child:
    ; r1 = tainted arg
    store r0, r1, 1
    halt
`, []int64{5})
	if !sink.Outputs[0] {
		t.Fatal("taint lost across spawn argument and shared memory")
	}
}

func TestIndirectBranchSink(t *testing.T) {
	p := isa.MustAssemble("t", `
.data 0
    in r1, 0        ; attacker-controlled target
    brr r1
target:
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	// Input = address of "target" so the jump lands somewhere valid.
	m.SetInput(0, []int64{int64(p.Labels["target"])})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	sink := &CollectSink[bool]{}
	e.AddSink(sink)
	m.AttachTool(e)
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if len(sink.Branches) != 1 || !sink.Branches[0] {
		t.Fatalf("indirect branch sink = %v, want [true]", sink.Branches)
	}
}

func TestPCTaintTracksLastWriter(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r1, 0
    addi r2, r1, 1
    store r0, r2, 5
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{1})
	e := NewEngine[PCLabel](PC{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Memory word 5 was last written by the store on source line 4.
	want := PCLabel(p.Instrs[2].Line)
	if got := e.MemTaint(5); got != want {
		t.Fatalf("PC taint of word 5 = %d, want %d", got, want)
	}
	// r2 was last written by the addi on line 3.
	if got := e.RegTaint(0, 2); got != PCLabel(p.Instrs[1].Line) {
		t.Fatalf("PC taint of r2 = %d", got)
	}
}

// TestPCJoinPrefersFirstOperand pins PC.Join's convention: prefer a
// when non-zero, else b (not "most recent wins" — Transfer handles
// recency by rewriting to the current statement).
func TestPCJoinPrefersFirstOperand(t *testing.T) {
	cases := []struct{ a, b, want PCLabel }{
		{0, 0, 0},
		{0, 7, 7},
		{3, 0, 3},
		{3, 7, 3}, // both tainted: a wins regardless of magnitude
		{7, 3, 7},
	}
	for _, c := range cases {
		if got := (PC{}).Join(c.a, c.b); got != c.want {
			t.Errorf("PC.Join(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPCTaintZeroForClean(t *testing.T) {
	p := isa.MustAssemble("t", `
    movi r1, 10
    store r0, r1, 5
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	e := NewEngine[PCLabel](PC{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if got := e.MemTaint(5); got != 0 {
		t.Fatalf("clean store should leave label 0, got %d", got)
	}
}

// InputID is a test domain that carries the global index of the
// single most recent input influencing a value (approximate single-
// source lineage; the exact multi-source version is the roBDD domain
// in internal/lineage). Zero means untainted, so stored indices are
// offset by one.
type InputID struct{}

// InputIDLabel is 1+the input index, 0 = untainted.
type InputIDLabel int64

// Source labels the word with its global input index + 1.
func (InputID) Source(ev *vm.Event) InputIDLabel { return InputIDLabel(ev.InputIdx + 1) }

// Join prefers the first non-zero label.
func (InputID) Join(a, b InputIDLabel) InputIDLabel {
	if a != 0 {
		return a
	}
	return b
}

// Transfer propagates unchanged.
func (InputID) Transfer(_ *vm.Event, src InputIDLabel) InputIDLabel { return src }

func TestInputIDDomain(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r1, 0
    in r2, 0
    add r3, r1, r2
    store r0, r3, 7
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{10, 20})
	e := NewEngine[InputIDLabel](InputID{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Join prefers the first source: input index 0 → label 1.
	if got := e.MemTaint(7); got != 1 {
		t.Fatalf("lineage label = %d, want 1", got)
	}
}

func TestCasPropagatesTaint(t *testing.T) {
	// CAS writes Imm (a constant) on success; the loaded old value
	// carries the memory label.
	p := isa.MustAssemble("t", `
.data 0
    in r2, 0            ; tainted expected value
    store r0, r2, 0     ; make mem[0] tainted and equal to r2
    cas r3, r0, r2, 9   ; r3 = old (tainted); mem[0] = 9
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if !e.RegTaint(0, 3) {
		t.Fatal("CAS old value should carry memory taint")
	}
}

// The CAS and spawn tests below pin the engine's observed semantics
// so no later change can silently alter them: the offloaded pipeline
// runs this same engine, and these are the behaviors the differential
// suite holds it to.

// TestCasFailureSemantics pins the failure path: a CAS whose expected
// value does not match still *reads* memory (the old value lands in
// Rd with the memory label joined in), but writes nothing — DstMem
// stays NoAddr, so the memory label is untouched, tainted or not.
func TestCasFailureSemantics(t *testing.T) {
	p := isa.MustAssemble("t", `
.data 0
    in r2, 0            ; tainted
    store r0, r2, 0     ; mem[0] tainted, value = input
    movi r4, 99         ; expected value that cannot match
    cas r3, r0, r4, 7   ; fails: r3 = old (tainted), mem unchanged
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if m.Mem[0] != 5 {
		t.Fatalf("CAS unexpectedly succeeded: mem[0] = %d", m.Mem[0])
	}
	if !e.RegTaint(0, 3) {
		t.Fatal("failed CAS must still taint Rd from the memory read")
	}
	if !e.MemTaint(0) {
		t.Fatal("failed CAS must leave the memory label unchanged")
	}
}

// TestCasSuccessStoresConstant pins the success path: the stored word
// is the immediate — a constant — so the cell's label is cleared
// exactly like a MOVI destination, tainted expected
// register or not. (The engine used to label the cell from the
// expected-value register unconditionally, over-tainting a constant
// store.)
func TestCasSuccessStoresConstant(t *testing.T) {
	// Tainted expected register → memory still cleared: the swapped-in
	// word is the constant 9, not the register.
	p := isa.MustAssemble("t", `
.data 0
    in r2, 0            ; tainted expected value
    store r0, r2, 0     ; mem[0] = input (tainted)
    cas r3, r0, r2, 9   ; succeeds: mem[0] = 9 (a constant)
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if m.Mem[0] != 9 {
		t.Fatal("CAS should have succeeded")
	}
	if e.MemTaint(0) {
		t.Fatal("successful CAS stores a constant: the cell must be cleared")
	}
	if !e.RegTaint(0, 3) {
		t.Fatal("Rd still carries the old (tainted) memory label")
	}
}

// TestDiscardRegisterNeverTainted pins the r0 rule: the machine
// discards writes to r0 and it always reads 0, so the engine must not
// label it — a discarded tainted computation used to leave a sticky
// label on r0 that falsely tainted every later use of the constant 0.
func TestDiscardRegisterNeverTainted(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r2, 0            ; tainted
    add r0, r2, r2      ; discarded computation over tainted data
    add r5, r0, r0      ; r5 = 0 + 0, a constant
    out r5, 1
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	sink := &CollectSink[bool]{}
	e.AddSink(sink)
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if e.RegTaint(0, 0) {
		t.Fatal("discard register r0 carries a label")
	}
	if e.RegTaint(0, 5) {
		t.Fatal("constant computed from r0 is tainted")
	}
	if len(sink.Outputs) != 1 || sink.Outputs[0] {
		t.Fatalf("output of a constant reported tainted: %v", sink.Outputs)
	}
}

// TestSpawnSeedsChildRegisterFile pins spawn's register seeding: the
// child's r1 receives the argument's label before the child runs a
// single instruction, and the spawner's Rd (the returned tid) is
// always clean, tainted argument or not.
func TestSpawnSeedsChildRegisterFile(t *testing.T) {
	p := isa.MustAssemble("t", `
    in r10, 0           ; tainted argument
    spawn r20, r10, child
    join r20
    halt
child:
    halt                ; child never touches r1
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{5})
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	m.AttachTool(e)
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	if !e.RegTaint(1, 1) {
		t.Fatal("child r1 must carry the spawn argument's label")
	}
	if e.RegTaint(0, 20) {
		t.Fatal("spawner's tid register must be clean")
	}
}

func TestShadowStatsGrow(t *testing.T) {
	e, _, _ := runBool(t, `
    in r1, 0
    movi r2, 0
    movi r3, 0
loop:
    movi r4, 2000
    bge r3, r4, done
    store r3, r1, 0
    addi r3, r3, 1
    br loop
done:
    halt
`, []int64{1})
	if e.TaintedWords() != 2000 {
		t.Fatalf("tainted = %d, want 2000", e.TaintedWords())
	}
}

// TestRegsStayValidAsThreadsGrow: a register file pointer from regFile
// stays live while later threads grow the bank (a spawn grows it while
// step holds the spawner's file), and RegTaint of a negative thread id
// is the zero label.
func TestRegsStayValidAsThreadsGrow(t *testing.T) {
	e := NewEngine[bool](Bool{}, DefaultPolicy())
	if e.RegTaint(-1, 0) {
		t.Fatal("negative tid reported a taint")
	}
	r0 := e.regFile(0)
	e.regFile(40)
	r0[3] = true
	if !e.RegTaint(0, 3) {
		t.Fatal("a label written through regFile(0) after regFile(40) was lost")
	}
}
