package repro_test

// End-to-end integration: the full path a downstream user takes — write
// assembly, produce a binary image, load it back (the "existing binary"),
// run it natively, run it transparently protected under the translator,
// inject a fault, and confirm detection — all through the public facade.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
)

const integrationSrc = `
; checksum over a small table, branchy enough to be interesting
.data 128
main:
    movi eax, 0
    movi ecx, 16
fill:
    movi esi, 100
    lea3 edx, [esi+ecx+0]
    store [edx], ecx
    subi ecx, 1
    cmpi ecx, 0
    jgt fill
    movi ecx, 16
sum:
    movi esi, 100
    lea3 edx, [esi+ecx+0]
    load ebx, [edx]
    add eax, ebx
    cmpi eax, 100
    jlt nofold
    subi eax, 97
nofold:
    subi ecx, 1
    cmpi ecx, 0
    jgt sum
    call finish
    halt
finish:
    out eax
    ret
`

func TestEndToEndBinaryLifecycle(t *testing.T) {
	// Assemble and serialize to the flat binary format.
	p, err := core.Assemble("integration", integrationSrc)
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image()

	// Load it back as an opaque "existing binary".
	loaded, err := isa.LoadImage("reloaded", img, p.Entry, p.DataWords)
	if err != nil {
		t.Fatal(err)
	}

	// Native reference run.
	nat := core.RunNative(loaded, 10_000_000)
	if nat.Stop.Reason != cpu.StopHalt || len(nat.Output) != 1 {
		t.Fatalf("native: %v %v", nat.Stop, nat.Output)
	}

	// Transparent protection: every technique/style/policy combination
	// must reproduce the native behavior bit for bit.
	for _, tech := range []string{"none", "ECF", "EdgCF", "RCF"} {
		for _, style := range []string{"Jcc", "CMOVcc"} {
			for _, pol := range []string{"ALLBB", "RET-BE", "RET", "END"} {
				res, err := core.RunDBT(loaded, core.Config{Technique: tech, Style: style, Policy: pol}, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stop.Reason != cpu.StopHalt || len(res.Output) != 1 || res.Output[0] != nat.Output[0] {
					t.Errorf("%s/%s/%s: stop=%v output=%v want %v",
						tech, style, pol, res.Stop, res.Output, nat.Output)
				}
			}
		}
	}

	// Error model over the same binary.
	tab, err := core.AnalyzeErrors(loaded, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total == 0 || tab.Branches == 0 {
		t.Error("error model found nothing")
	}

	// Injection campaign under full protection: no silent corruption.
	rep, err := core.InjectCtx(context.Background(), loaded, core.Config{Technique: "RCF", Style: "CMOVcc"}, 250, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Total == 0 {
		t.Fatal("no faults fired")
	}
	if got := rep.Totals.Coverage(); got < 0.97 {
		t.Errorf("RCF end-to-end coverage = %.3f, want >= 0.97", got)
	}

	// The formal layer agrees with the empirical one.
	res, err := core.VerifyScheme("RCF", nil)
	if err != nil || !res.Sufficient || !res.Necessary {
		t.Errorf("formal verification of RCF failed: %+v, %v", res, err)
	}
}
