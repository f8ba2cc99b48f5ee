package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpMetadata(t *testing.T) {
	if !ADD.ReadsRs1() || !ADD.ReadsRs2() || !ADD.WritesRd() {
		t.Fatal("ADD metadata wrong")
	}
	if LOAD.Stores() || !LOAD.WritesRd() {
		t.Fatal("LOAD metadata wrong")
	}
	if !STORE.Stores() || STORE.WritesRd() {
		t.Fatal("STORE metadata wrong")
	}
	if !BEQ.IsBranch() || !BEQ.IsConditional() || !BEQ.HasTarget() {
		t.Fatal("BEQ metadata wrong")
	}
	if BR.IsConditional() {
		t.Fatal("BR should be unconditional")
	}
	if Op(200).Valid() {
		t.Fatal("out-of-range opcode should be invalid")
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		name := op.String()
		got, ok := OpByName(name)
		if !ok {
			t.Fatalf("OpByName(%q) missing", name)
		}
		if got != op {
			t.Fatalf("OpByName(%q) = %v, want %v", name, got, op)
		}
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("t")
	b.Movi(1, 10).
		Movi(2, 20).
		Add(3, 1, 2).
		Out(3, 0).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 5 {
		t.Fatalf("got %d instrs", len(p.Instrs))
	}
	if p.Instrs[2].Op != ADD || p.Instrs[2].Rd != 3 {
		t.Fatalf("instr 2 = %v", p.Instrs[2])
	}
	if p.Instrs[0].Line != 1 || p.Instrs[4].Line != 5 {
		t.Fatal("builder statement ids not sequential")
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Movi(1, 0).
		Br("end").
		Movi(1, 99).
		Label("end").
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Target != 3 {
		t.Fatalf("forward label target = %d, want 3", p.Instrs[1].Target)
	}
}

// IndirectTo resolves its label into the ADDI immediate, forward and
// backward alike, and adds no static target to the transfer.
func TestBuilderIndirectTo(t *testing.T) {
	b := NewBuilder("t")
	b.Label("back").
		Movi(1, 0).
		IndirectTo(CALLR, 1, "fwd"). // 1: addi, 2: callr
		Movi(2, 0).
		IndirectTo(BRR, 2, "back"). // 4: addi, 5: brr
		Label("fwd").
		Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at  int
		op  Op
		imm int64
	}{{1, CALLR, 6}, {4, BRR, 0}} {
		add, jmp := p.Instrs[c.at], p.Instrs[c.at+1]
		if add.Op != ADDI || add.Rd != add.Rs1 || add.Imm != c.imm || jmp.Op != c.op || jmp.Rs1 != add.Rd {
			t.Fatalf("instrs %d-%d = %v; %v, want addi r%d, r%d, %d; %v r%d", c.at, c.at+1, add, jmp, add.Rd, add.Rd, c.imm, c.op, add.Rd)
		}
	}
	if _, err := NewBuilder("t").IndirectTo(BR, 1, "x").Label("x").Halt().Build(); err == nil {
		t.Fatal("IndirectTo accepted a direct opcode")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Br("nowhere").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x").Halt().Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestBuilderFuncRanges(t *testing.T) {
	b := NewBuilder("t")
	b.Br("main")
	b.Func("helper").Addi(2, 1, 1).Ret().EndFunc()
	b.Label("main").Movi(1, 5).Call("helper").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := p.Funcs["helper"]
	if !ok || fr.Start != 1 || fr.End != 3 {
		t.Fatalf("helper range = %+v", fr)
	}
}

func TestBuilderDataSegment(t *testing.T) {
	b := NewBuilder("t")
	a0 := b.Data(7, 8, 9)
	a1 := b.Reserve(4)
	b.Halt()
	p := b.MustBuild()
	if a0 != 0 || a1 != 3 {
		t.Fatalf("data addrs: %d %d", a0, a1)
	}
	if len(p.Data) != 7 || p.Data[2] != 9 || p.Data[5] != 0 {
		t.Fatalf("data segment = %v", p.Data)
	}
}

const asmExample = `
; sum the first n input words
.equ CH_IN 0
.equ CH_OUT 1
.data 0, 0
start:
    in r1, CH_IN        ; n
    movi r2, 0          ; sum
    movi r3, 0          ; i
loop:
    bge r3, r1, done
    in r4, CH_IN
    add r2, r2, r4
    addi r3, r3, 1
    br loop
done:
    out r2, CH_OUT
    halt
`

func TestAssembleExample(t *testing.T) {
	p, err := Assemble("sum", asmExample)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Instrs); got != 10 {
		t.Fatalf("got %d instrs:\n%s", got, p.Disassemble())
	}
	if p.Labels["loop"] != 3 || p.Labels["done"] != 8 {
		t.Fatalf("labels = %v", p.Labels)
	}
	if p.Instrs[3].Op != BGE || p.Instrs[3].Target != 8 {
		t.Fatalf("bge = %v", p.Instrs[3])
	}
	if p.Instrs[8].Imm != 1 || p.Instrs[6].Imm != 1 {
		t.Fatal(".equ constants not substituted")
	}
	if len(p.Data) != 2 {
		t.Fatalf("data = %v", p.Data)
	}
	// Statement ids should be true source lines.
	if l := p.Instrs[0].Line; l == 0 || strings.TrimSpace(p.Source[l-1]) != "in r1, CH_IN        ; n" {
		t.Fatalf("line mapping wrong: %d", l)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"badmnemonic", "frobnicate r1"},
		{"badreg", "movi r99, 1"},
		{"missingoperand", "add r1, r2"},
		{"toomany", "halt r1"},
		{"badlabelref", "br 123"},
		{"undefinedlabel", "br nowhere"},
		{"baddirective", ".bogus 1"},
		{"badimm", "movi r1, xyz"},
		{"badequ", ".equ OnlyName"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.name, c.text+"\nhalt"); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAssembleFuncDirectives(t *testing.T) {
	p, err := Assemble("f", `
    br main
.func double
    add r2, r1, r1
    ret
.endfunc
main:
    movi r1, 21
    call double
    out r2, 0
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := p.Funcs["double"]
	if !ok || fr.Start != 1 || fr.End != 3 {
		t.Fatalf("double = %+v", fr)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	p := MustAssemble("sum", asmExample)
	d := p.Disassemble()
	for _, want := range []string{"loop:", "done:", "bge r3, r1, @8", "in r1, 0"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestBuildCFG(t *testing.T) {
	p := MustAssemble("sum", asmExample)
	cfg := BuildCFG(p)
	// Blocks: [0..3) header, [3,4) bge, [4,7) body, [7,9) done.
	if len(cfg.Blocks) != 4 {
		t.Fatalf("got %d blocks: %+v", len(cfg.Blocks), cfg.Blocks)
	}
	bge := cfg.Blocks[cfg.BlockOf[3]]
	if len(bge.Succs) != 2 {
		t.Fatalf("bge succs = %v", bge.Succs)
	}
	body := cfg.Blocks[cfg.BlockOf[4]]
	if len(body.Succs) != 1 || body.Succs[0] != cfg.BlockOf[3] {
		t.Fatalf("body succs = %v", body.Succs)
	}
	done := cfg.Blocks[cfg.BlockOf[8]]
	if len(done.Succs) != 0 {
		t.Fatalf("done succs = %v", done.Succs)
	}
}

func TestBlockStaticDeps(t *testing.T) {
	p := MustAssemble("s", `
    movi r1, 1
    movi r2, 2
    add r3, r1, r2
    add r4, r3, r1
    halt
`)
	cfg := BuildCFG(p)
	deps := BlockStaticDeps(cfg)
	blk := cfg.BlockOf[2]
	var got []StaticDep
	for _, d := range deps[blk] {
		got = append(got, d)
	}
	// add r3 reads r1 (def 0) and r2 (def 1); add r4 reads r3 (def 2) and r1 (def 0).
	if len(got) != 4 {
		t.Fatalf("deps = %+v", got)
	}
	found := map[[2]int]bool{}
	for _, d := range got {
		found[[2]int{d.Use, d.Def}] = true
	}
	for _, want := range [][2]int{{2, 0}, {2, 1}, {3, 2}, {3, 0}} {
		if !found[want] {
			t.Errorf("missing static dep %v in %+v", want, got)
		}
	}
}

func TestImmediatePostdominators(t *testing.T) {
	// Diamond: entry -> (then|else) -> join -> exit
	p := MustAssemble("d", `
    beqz r1, elseb
    movi r2, 1
    br join
elseb:
    movi r2, 2
join:
    out r2, 0
    halt
`)
	cfg := BuildCFG(p)
	ipdom := ImmediatePostdominators(cfg)
	entry := cfg.BlockOf[0]
	join := cfg.BlockOf[p.Labels["join"]]
	if ipdom[entry] != join {
		t.Fatalf("ipdom(entry)=%d want %d (blocks %+v)", ipdom[entry], join, cfg.Blocks)
	}
	thenB := cfg.BlockOf[1]
	elseB := cfg.BlockOf[p.Labels["elseb"]]
	if ipdom[thenB] != join || ipdom[elseB] != join {
		t.Fatalf("ipdom(then)=%d ipdom(else)=%d want %d", ipdom[thenB], ipdom[elseB], join)
	}
	if ipdom[join] != -1 {
		t.Fatalf("ipdom(join)=%d want -1", ipdom[join])
	}
}

// Property: every assembled program validates, and disassembly of each
// instruction mentions its mnemonic.
func TestInstrStringProperty(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int64) bool {
		o := Op(op % uint8(opCount))
		if !o.Valid() {
			return true
		}
		ins := Instr{Op: o, Rd: rd % NumRegs, Rs1: rs1 % NumRegs, Rs2: rs2 % NumRegs, Imm: imm}
		s := ins.String()
		return strings.HasPrefix(s, o.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: labels in assembled programs always resolve inside the
// instruction range.
func TestAssembledTargetsInRange(t *testing.T) {
	p := MustAssemble("sum", asmExample)
	for i, ins := range p.Instrs {
		if ins.Op.HasTarget() && (ins.Target < 0 || ins.Target >= len(p.Instrs)) {
			t.Fatalf("instr %d target out of range: %v", i, ins)
		}
	}
}
