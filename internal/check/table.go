package check

import (
	"cmp"
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

// ReadsStyle reports whether the row's checks read the update style: only
// a translator row that inserts checks (it has a scheme) emits the
// conditional update the style shapes.
func (t *Technique) ReadsStyle() bool { return t.New != nil && t.Scheme != nil }

// Identity is one configuration: the technique's row, the update style
// and the checking policy.
type Identity struct {
	Row    *Technique
	Style  dbt.UpdateStyle
	Policy dbt.Policy
}

// Identify resolves a configuration's technique, style and policy names
// to its identity. It is the only parser of these names: any letter case,
// "" for each default (none, Jcc, ALLBB) and the aliases "cmov" and
// "RETBE". It allocates only to report an error.
func Identify(technique, style, policy string) (Identity, error) {
	row, err := Lookup(technique)
	st, serr := ParseStyle(style)
	pol, perr := ParsePolicy(policy)
	if err := cmp.Or(err, serr, perr); err != nil {
		return Identity{}, err
	}
	return Identity{row, st, pol}, nil
}

// Names spells id canonically, as every key, fingerprint and ring owner
// names it: the row's name, the style's name when the row reads it and ""
// otherwise, and the policy's name.
func (id Identity) Names() (technique, style, policy string) {
	if id.Row.ReadsStyle() {
		style = id.Style.String()
	}
	return id.Row.Name, style, id.Policy.String()
}

// ParseStyle resolves an update-style name (see Identify).
func ParseStyle(s string) (dbt.UpdateStyle, error) {
	switch {
	case s == "" || strings.EqualFold(s, dbt.UpdateJcc.String()):
		return dbt.UpdateJcc, nil
	case strings.EqualFold(s, dbt.UpdateCmov.String()) || strings.EqualFold(s, "cmov"):
		return dbt.UpdateCmov, nil
	}
	return 0, fmt.Errorf("unknown update style %q (want Jcc or CMOVcc)", s)
}

// ParsePolicy resolves a checking-policy name (see Identify).
func ParsePolicy(s string) (dbt.Policy, error) {
	if strings.EqualFold(s, "RETBE") {
		return dbt.PolicyRetBE, nil
	}
	for _, p := range dbt.Policies() {
		if s == "" || strings.EqualFold(s, p.String()) { // "" is ALLBB, the first
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want ALLBB, RET-BE, RET or END)", s)
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
