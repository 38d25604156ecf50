// Command cfc-verify model-checks the signature schemes against the
// paper's Section 4 correctness conditions: the sufficient condition (every
// single control-flow error reaching a check is detected — no false
// negatives) and the necessary condition (error-free runs never report —
// no false positives). EdgCF and RCF satisfy both (the paper's Claim 1);
// the prior techniques fail the sufficient condition, and the checker
// prints a concrete counterexample execution for each.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	names := check.Names(func(t *check.Technique) bool { return t.Scheme != nil })
	var scheme = flag.String("scheme", "", "verify one scheme ("+strings.Join(names, "|")+"); default: all")
	var app cli.App
	app.BindFlags(flag.CommandLine, 0)
	flag.Parse()
	fatalIf(app.Open())

	if *scheme != "" {
		names = []string{*scheme}
	}
	for _, name := range names {
		res, err := core.VerifyScheme(name, app.Registry())
		fatalIf(err)
		fmt.Printf("%-6s sufficient=%-5v necessary=%-5v (%d states explored)\n",
			res.Scheme, res.Sufficient, res.Necessary, res.StatesExplored)
		if res.FalseNegative != nil {
			fmt.Println("  counterexample (missed error):")
			for _, ev := range res.FalseNegative {
				fmt.Printf("    %s\n", ev)
			}
		}
		if res.FalsePositive != nil {
			fmt.Println("  counterexample (false report):")
			for _, ev := range res.FalsePositive {
				fmt.Printf("    %s\n", ev)
			}
		}
	}
	fatalIf(app.Close())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-verify:", err)
		os.Exit(1)
	}
}
