package workloads_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/check"
	"repro/internal/fp"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// programDigest pins one built program: fp.Program over its image and a
// digest of its symbol table. Symbols are part of the pin because
// cfg.Build reads them to mark indirect-flow leaders and the
// disassembler prints them.
type programDigest struct {
	Program string `json:"program"`
	Symbols string `json:"symbols"`
}

// symbolDigest hashes a symbol table in address order.
func symbolDigest(p *isa.Program) string {
	addrs := make([]uint32, 0, len(p.Symbols))
	for a := range p.Symbols {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := fp.NewHash()
	h.U64(uint64(len(addrs)))
	for _, a := range addrs {
		h.U64(uint64(a))
		h.String(p.Symbols[a])
	}
	return h.Sum()
}

func digestOf(p *isa.Program) programDigest {
	return programDigest{Program: fp.Program(p), Symbols: symbolDigest(p)}
}

// programDigests builds every workload at scales 0.05 and 1 and
// instruments each 0.05 build with CFCSS and ECCA: 104 rows keyed
// "workload@scale" and "workload@0.05+kind".
func programDigests(t *testing.T) map[string]programDigest {
	t.Helper()
	rows := map[string]programDigest{}
	for _, prof := range workloads.All() {
		for _, scale := range []float64{0.05, 1} {
			p, err := prof.Build(scale)
			if err != nil {
				t.Fatalf("%s@%g: %v", prof.Name, scale, err)
			}
			key := prof.Name + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
			rows[key] = digestOf(p)
			if scale != 0.05 {
				continue
			}
			for _, kind := range []check.StaticKind{check.StaticCFCSS, check.StaticECCA} {
				q, err := check.InstrumentStatic(p, kind)
				if err != nil {
					t.Fatalf("%s %s: %v", key, kind, err)
				}
				rows[key+"+"+kind.String()] = digestOf(q)
			}
		}
	}
	return rows
}

// TestProgramDigests pins every generated and statically instrumented
// program, code and symbols, against testdata/program_digests.json. A
// change to the builder, the generator or the static rewriters that
// moves one byte of any program fails it; a deliberate change to the
// programs re-derives the table (the test logs the rows that differ).
func TestProgramDigests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "program_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]programDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := programDigests(t)
	if len(want) != 104 || len(got) != 104 {
		t.Fatalf("table has %d rows, built %d; want 104 each", len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no row in the table", key)
		} else if g != w {
			t.Errorf("%s: got %+v, want %+v", key, g, w)
		}
	}
}
