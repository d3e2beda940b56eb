// Command tsbench is timingsubg's end-to-end benchmark. It drives three
// workloads over generated streams, checks every delivered match for
// soundness and against a stored independent oracle, and prints one
// JSON result line. See README.md.
//
// Usage (from the repository root, normally through benchmark/run.sh):
//
//	tsbench run -workload social-join -seed 1 -seconds 20 -trace 0
//	tsbench oracle
//	tsbench steady -n 10
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runMain(args)
	case "oracle":
		err = oracleMain(args)
	case "steady":
		err = steadyMain(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, oracle or steady)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}
