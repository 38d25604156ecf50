package live

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
)

func analyze(t *testing.T, src string) *Info {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(cfg.Build(p))
}

// A full flag redefinition before the next flag reader makes every flag bit
// dead at the intervening address.
func TestFlagsDeadAcrossRedefinition(t *testing.T) {
	li := analyze(t, `
    cmp eax, ecx
    addi edx, 1
    jeq done
    out edx
done:
    halt
`)
	// At address 2 (addi) the incoming flags from cmp are about to be
	// clobbered by addi before jeq reads them: all five bits dead.
	for bit := uint(0); bit < isa.NumFlagBits; bit++ {
		if !li.FlagBitDead(2, bit) {
			t.Errorf("flag bit %d live at addr 2, want dead", bit)
		}
	}
	// At address 3 (jeq) the Z bit is read by the branch itself.
	if li.FlagBitDead(3, 2) { // bit 2 == FlagZ
		t.Error("Z dead at the jeq, want live")
	}
	// Bits jeq does not inspect are dead even at the branch.
	if !li.FlagBitDead(3, 0) { // FlagC
		t.Error("C live at the jeq, want dead")
	}
}

func TestFlagBitsReadByCondition(t *testing.T) {
	li := analyze(t, `
    cmp eax, ecx
    jlt done
    out eax
done:
    halt
`)
	// jlt reads S and O (bits 3 and 4); Z, P, C are dead at the branch.
	for bit, wantDead := range map[uint]bool{0: true, 1: true, 2: true, 3: false, 4: false} {
		if got := li.FlagBitDead(2, bit); got != wantDead {
			t.Errorf("flag bit %d dead = %v, want %v", bit, got, wantDead)
		}
	}
}

func TestRegDeadAcrossRedefinition(t *testing.T) {
	li := analyze(t, `
    movi ecx, 5
    movi ecx, 7
    out ecx
    halt
`)
	if !li.RegDead(2, isa.ECX) {
		t.Error("ecx live at addr 2, want dead (redefined before use)")
	}
	if li.RegDead(3, isa.ECX) {
		t.Error("ecx dead at addr 3, want live (out reads it)")
	}
	if !li.RegDead(1, isa.ECX) {
		t.Error("ecx live at addr 1, want dead (movi writes without reading)")
	}
}

// Liveness must union over both sides of a branch: a register read only on
// the fall-through path is still live at the branch.
func TestRegLiveAcrossJoin(t *testing.T) {
	li := analyze(t, `
    jeq skip
    out ebx
skip:
    movi ebx, 0
    halt
`)
	if li.RegDead(1, isa.EBX) {
		t.Error("ebx dead at the branch, want live via the fall-through path")
	}
	if !li.RegDead(3, isa.EBX) {
		t.Error("ebx live at addr 3, want dead (redefined there)")
	}
}

// Back edges must propagate around the loop to a fixpoint.
func TestLoopFixpoint(t *testing.T) {
	li := analyze(t, `
loop:
    subi eax, 1
    cmpi eax, 0
    jgt loop
    halt
`)
	// eax is read on every loop iteration: live everywhere in the loop,
	// including back at the top via the back edge from jgt.
	for addr := uint32(1); addr < 4; addr++ {
		if li.RegDead(addr, isa.EAX) {
			t.Errorf("eax dead at addr %d, want live around the loop", addr)
		}
	}
}

// Indirect control flow is a liveness barrier: everything is live before it.
func TestIndirectIsConservative(t *testing.T) {
	li := analyze(t, `
    movi eax, 1
    ret
`)
	// At the ret everything is live: the analysis cannot see the callee of
	// the indirect transfer.
	if li.RegDead(2, isa.EAX) {
		t.Error("eax dead at the ret, want conservatively live")
	}
	for bit := uint(0); bit < isa.NumFlagBits; bit++ {
		if li.FlagBitDead(2, bit) {
			t.Errorf("flag bit %d dead at the ret, want conservatively live", bit)
		}
	}
	// Before the movi the kill still applies: eax is overwritten before the
	// transfer, so a flip there is provably benign even with an indirect
	// successor. Flags reach the ret untouched and stay live.
	if !li.RegDead(1, isa.EAX) {
		t.Error("eax live at addr 1, want dead (movi overwrites it)")
	}
	if li.FlagBitDead(1, 0) {
		t.Error("C dead at addr 1, want live through to the ret")
	}
}

// cmov is a conditional write: it must not kill its destination, and it
// reads the flags its condition inspects.
func TestCmovDoesNotKill(t *testing.T) {
	p, err := asm.Assemble("t", `
    cmp eax, ecx
    cmoveq ebx, edx
    out ebx
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	li := Analyze(cfg.Build(p))
	// ebx may survive the cmov unchanged, so it is live before it.
	if li.RegDead(2, isa.EBX) {
		t.Error("ebx dead at the cmov, want live (conditional write)")
	}
	// The cmov's Z read keeps FlagZ live at the cmp's successor.
	if li.FlagBitDead(2, 2) {
		t.Error("Z dead at the cmov, want live")
	}
}

// pushf spills the whole flags register: all bits live before it.
func TestPushFReadsAllFlags(t *testing.T) {
	li := analyze(t, `
    cmp eax, ecx
    pushf
    popf
    halt
`)
	for bit := uint(0); bit < isa.NumFlagBits; bit++ {
		if li.FlagBitDead(2, bit) {
			t.Errorf("flag bit %d dead before pushf, want live", bit)
		}
	}
}

func TestOutOfRangeNeverDead(t *testing.T) {
	li := AnalyzeCode(nil)
	if li.FlagBitDead(0, 0) || li.RegDead(0, isa.EAX) {
		t.Error("out-of-range address reported as provably dead")
	}
	li = analyze(t, "halt\n")
	if li.FlagBitDead(7, 0) || li.RegDead(7, isa.EAX) {
		t.Error("address past the image reported as provably dead")
	}
	if li.FlagBitDead(0, isa.NumFlagBits) {
		t.Error("out-of-range flag bit reported as dead")
	}
}

// FlagsOnly keeps every flag answer and proves no register dead.
func TestFlagsOnlyDropsRegisters(t *testing.T) {
	li := analyze(t, `
    cmp eax, ecx
    movi ecx, 5
    movi ecx, 7
    jeq done
    out ecx
done:
    halt
`)
	fo := li.FlagsOnly()
	for a := uint32(1); a < 7; a++ {
		for bit := uint(0); bit < isa.NumFlagBits; bit++ {
			if fo.FlagBitDead(a, bit) != li.FlagBitDead(a, bit) {
				t.Errorf("addr %d bit %d: FlagsOnly answers %v, full info %v", a, bit, fo.FlagBitDead(a, bit), li.FlagBitDead(a, bit))
			}
		}
	}
	if !li.RegDead(2, isa.ECX) {
		t.Fatal("ecx live at addr 2, want dead (redefined before use)")
	}
	if fo.RegDead(2, isa.ECX) {
		t.Error("FlagsOnly proves ecx dead at addr 2, want no register answers")
	}
}
