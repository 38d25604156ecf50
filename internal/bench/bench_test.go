package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/errmodel"
	"repro/internal/inject"
	"repro/internal/workloads"
)

// Tests run the experiments at reduced scale and assert the qualitative
// relations the paper reports; EXPERIMENTS.md records full-scale numbers.
const testScale = 0.15

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{3}); math.Abs(g-3) > 1e-9 {
		t.Errorf("geomean(3) = %v", g)
	}
}

func TestFigure12Shape(t *testing.T) {
	tab, err := Figure12(testScale, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 26 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Columns: RCF, EdgCF, ECF.
	rcf, edg, ecf := tab.GeoAll[0], tab.GeoAll[1], tab.GeoAll[2]
	if !(rcf > edg) {
		t.Errorf("RCF (%.3f) must exceed EdgCF (%.3f)", rcf, edg)
	}
	if math.Abs(edg-ecf) > 0.05 {
		t.Errorf("EdgCF (%.3f) and ECF (%.3f) should be close", edg, ecf)
	}
	for i := range tab.Configs {
		if !(tab.GeoAll[i] > 1) {
			t.Errorf("%s slowdown %.3f not above 1", tab.Configs[i], tab.GeoAll[i])
		}
		// The fp suite suffers less than the int suite (big blocks,
		// long-latency instructions), the paper's Figure 12 observation.
		if !(tab.GeoFp[i] < tab.GeoInt[i]) {
			t.Errorf("%s: fp %.3f !< int %.3f", tab.Configs[i], tab.GeoFp[i], tab.GeoInt[i])
		}
	}
	s := FormatSlowdownTable(tab)
	if !strings.Contains(s, "geomean-fp") || !strings.Contains(s, "164.gzip") {
		t.Errorf("format:\n%s", s)
	}
}

func TestFigure14Shape(t *testing.T) {
	tab, err := Figure14(testScale, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range tab.Techniques {
		if !(tab.Slowdown[1][ti] > tab.Slowdown[0][ti]) {
			t.Errorf("%s: CMOVcc (%.3f) must exceed Jcc (%.3f)",
				tab.Techniques[ti], tab.Slowdown[1][ti], tab.Slowdown[0][ti])
		}
	}
	// RCF with the safe Jcc implementation "almost beats" the cmov ECF,
	// the paper's headline for Figure 14: it must at least be in range.
	if tab.Slowdown[0][0] > tab.Slowdown[1][2]+0.1 {
		t.Errorf("RCF/Jcc (%.3f) should be near ECF/CMOVcc (%.3f)",
			tab.Slowdown[0][0], tab.Slowdown[1][2])
	}
	s := FormatFigure14(tab)
	if !strings.Contains(s, "CMOVcc") {
		t.Errorf("format:\n%s", s)
	}
}

func TestFigure15Shape(t *testing.T) {
	tab, err := Figure15(testScale, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := tab.GeoAll // ALLBB, RET-BE, RET, END
	if !(all[0] > all[1] && all[1] > all[2] && all[2] >= all[3]) {
		t.Errorf("policy ordering violated: %v", all)
	}
	// The improvement is larger for int than fp (paper: 77%->37% vs
	// 23%->18%).
	dropInt := tab.GeoInt[0] - tab.GeoInt[1]
	dropFp := tab.GeoFp[0] - tab.GeoFp[1]
	if dropInt <= dropFp {
		t.Errorf("ALLBB->RET-BE drop: int %.3f <= fp %.3f", dropInt, dropFp)
	}
	// RET and END nearly identical (programs live in inner loops, not in
	// call/return traffic).
	if math.Abs(tab.GeoAll[2]-tab.GeoAll[3]) > 0.05 {
		t.Errorf("RET (%.3f) and END (%.3f) should nearly coincide", all[2], all[3])
	}
}

func TestDBTBaselineShape(t *testing.T) {
	rows, avg, err := DBTBaseline(testScale, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Overhead positive but modest (paper: ~12% average; translation is
	// relatively heavier at test scale).
	if avg <= 0 || avg > 0.6 {
		t.Errorf("baseline overhead = %.1f%%", avg*100)
	}
	for _, r := range rows {
		if r.DBT <= r.Native {
			t.Errorf("%s: DBT %d <= native %d", r.Name, r.DBT, r.Native)
		}
	}
	s := FormatBaseline(rows, avg)
	if !strings.Contains(s, "geomean overhead") {
		t.Errorf("format:\n%s", s)
	}
}

func TestFigure2Shape(t *testing.T) {
	intTab, fpTab, err := Figure2(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	ni, nf := intTab.Normalized(), fpTab.Normalized()
	// E dominates everywhere (the paper's headline observation).
	if ni[errmodel.CatE] < 0.5 || nf[errmodel.CatE] < 0.4 {
		t.Errorf("E should dominate: int %.2f fp %.2f", ni[errmodel.CatE], nf[errmodel.CatE])
	}
	// A is the second large category.
	if ni[errmodel.CatA] < 0.08 || nf[errmodel.CatA] < 0.08 {
		t.Errorf("A too small: int %.2f fp %.2f", ni[errmodel.CatA], nf[errmodel.CatA])
	}
	// C is much larger for fp than for int (big blocks, tight kernels).
	if !(nf[errmodel.CatC] > 4*ni[errmodel.CatC]) {
		t.Errorf("fp C (%.3f) should far exceed int C (%.3f)", nf[errmodel.CatC], ni[errmodel.CatC])
	}
	// B is negligible.
	if ni[errmodel.CatB] > 0.01 || nf[errmodel.CatB] > 0.01 {
		t.Errorf("B should be negligible: %.3f %.3f", ni[errmodel.CatB], nf[errmodel.CatB])
	}
	// F absorbs a large share of raw taken-address faults.
	if intTab.CategoryProb(errmodel.CatF) < 0.1 || fpTab.CategoryProb(errmodel.CatF) < 0.2 {
		t.Error("F too small; code footprints miscalibrated")
	}
}

func TestCoverageMatrixShape(t *testing.T) {
	reports, err := CoverageMatrix(context.Background(), CoverageConfig{
		Scale:     0.05,
		Samples:   120,
		Seed:      42,
		Workloads: []string{"164.gzip", "171.swim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 6 { // none, ECF, EdgCF, RCF, CFCSS, ECCA
		t.Fatalf("reports = %d", len(reports))
	}
	byName := map[string]*inject.Report{}
	for _, r := range reports {
		byName[r.Technique] = r
	}
	rcf := byName["RCF"].Totals.Coverage()
	none := byName["none"].Totals.Coverage()
	cfcss := byName["CFCSS"].Totals.Coverage()
	if !(rcf > none) {
		t.Errorf("RCF coverage %.3f !> none %.3f", rcf, none)
	}
	if !(rcf >= cfcss) {
		t.Errorf("RCF coverage %.3f < CFCSS %.3f", rcf, cfcss)
	}
	// SDC counts: RCF lowest among software techniques.
	if byName["RCF"].Totals.Count[inject.OutSDC] > byName["none"].Totals.Count[inject.OutSDC] {
		t.Error("RCF worse than unprotected")
	}
	// Section 3's claims are about the software checks, so they are
	// pinned on det-sw, which the hardware's null page never moves.
	// CFCSS and ECCA accept either successor of a conditional branch,
	// so a mistaken branch (A) is never detected in software.
	sw := func(tech string, c errmodel.Category) (det, total int) {
		if a := byName[tech].ByCat[c]; a != nil {
			return a.Count[inject.OutDetectedSW], a.Total
		}
		return 0, 0
	}
	for _, tech := range []string{"CFCSS", "ECCA"} {
		if det, total := sw(tech, errmodel.CatA); total == 0 || det != 0 {
			t.Errorf("%s: %d of %d category-A errors detected in software, want 0 of some", tech, det, total)
		}
	}
	// ECCA's end-of-block id assignment runs after a landing mid-block
	// (C, E), so those errors pass its next assertion; landings on a
	// block's start (D) are caught.
	cSW, cN := sw("ECCA", errmodel.CatC)
	eSW, eN := sw("ECCA", errmodel.CatE)
	if cN+eN == 0 || cSW+eSW != 0 {
		t.Errorf("ECCA: %d of %d mid-block landings detected in software, want 0 of some", cSW+eSW, cN+eN)
	}
	if dSW, _ := sw("ECCA", errmodel.CatD); dSW == 0 {
		t.Error("ECCA detected no block-start landing (D) in software")
	}
	// Only RCF covers every category: it has the fewest SDCs.
	for _, r := range reports {
		if r.Technique != "RCF" && r.Totals.Count[inject.OutSDC] < byName["RCF"].Totals.Count[inject.OutSDC] {
			t.Errorf("%s has %d SDCs, fewer than RCF's %d", r.Technique,
				r.Totals.Count[inject.OutSDC], byName["RCF"].Totals.Count[inject.OutSDC])
		}
	}
	s := FormatCoverageMatrix(reports)
	if !strings.Contains(s, "RCF") || !strings.Contains(s, "CFCSS") {
		t.Errorf("format:\n%s", s)
	}
}

func TestWorkloadsCoverAllProfiles(t *testing.T) {
	if len(workloads.Names()) != 26 {
		t.Error("workload count changed; figures incomplete")
	}
}
