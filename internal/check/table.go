package check

import (
	"fmt"
	"strings"

	"repro/internal/dbt"
	"repro/internal/sig"
)

// Technique is one row of the technique table.
type Technique struct {
	// Name is the canonical spelling every key, fingerprint and report
	// label carries.
	Name string
	// New builds the technique inside the translator; nil for a static
	// baseline, which InstrumentStatic rewrites with Static and which
	// then runs natively.
	New    func(style dbt.UpdateStyle) dbt.Technique
	Static StaticKind
	// Scheme builds the signature algebra sig.Verify checks against the
	// Section 4 conditions; nil for "none".
	Scheme func(g *sig.Graph) sig.Scheme
	// Version invalidates this technique's cached cells and warm
	// artifacts alone: bump it when only its checker changes.
	Version int
}

// Techniques is the technique table, in coverage-matrix column order.
var Techniques = []Technique{
	{Name: "none", Version: 1, New: func(dbt.UpdateStyle) dbt.Technique { return dbt.None{} }},
	{Name: "ECF", Version: 1, Scheme: func(*sig.Graph) sig.Scheme { return sig.ECF{} },
		New: func(s dbt.UpdateStyle) dbt.Technique { return &ECF{Style: s} }},
	{Name: "EdgCF", Version: 1, Scheme: func(*sig.Graph) sig.Scheme { return sig.EdgCF{} },
		New: func(s dbt.UpdateStyle) dbt.Technique { return &EdgCF{Style: s} }},
	{Name: "RCF", Version: 1, Scheme: func(*sig.Graph) sig.Scheme { return sig.RCF{} },
		New: func(s dbt.UpdateStyle) dbt.Technique { return &RCF{Style: s} }},
	{Name: "CFCSS", Version: 1, Static: StaticCFCSS,
		Scheme: func(g *sig.Graph) sig.Scheme { return sig.NewCFCSS(g) }},
	{Name: "ECCA", Version: 1, Static: StaticECCA,
		Scheme: func(g *sig.Graph) sig.Scheme { return sig.NewECCA(g) }},
}

// Lookup resolves a technique name in any letter case, or "" for "none",
// to its row. It is the only place a technique name is parsed.
func Lookup(name string) (*Technique, error) {
	if name == "" {
		return &Techniques[0], nil
	}
	for i := range Techniques {
		if strings.EqualFold(name, Techniques[i].Name) {
			return &Techniques[i], nil
		}
	}
	return nil, fmt.Errorf("unknown technique %q (want %s)", name, strings.Join(Names(nil), ", "))
}

// Names lists the names of the rows keep accepts (all when keep is nil).
func Names(keep func(*Technique) bool) []string {
	var names []string
	for i := range Techniques {
		if keep == nil || keep(&Techniques[i]) {
			names = append(names, Techniques[i].Name)
		}
	}
	return names
}

// New returns the named translator technique under the given
// conditional-update style; a static baseline is an error.
func New(name string, style dbt.UpdateStyle) (dbt.Technique, error) {
	t, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if t.New == nil {
		return nil, fmt.Errorf("%s is a static baseline and runs without the translator", t.Name)
	}
	return t.New(style), nil
}
