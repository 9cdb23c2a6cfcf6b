// Command flowgen generates synthetic design-flow schemas in the
// construction-rule DSL, for feeding the hercules CLI and the scaling
// experiments:
//
//	flowgen -depth 6 -width 4 -fanin 2 -seed 11 > flow.fs
//	hercules <<EOF
//	schema flow.fs
//	...
//	EOF
//
// With -kind fig4, asic, board, or analog it prints built-in schemas instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"flowsched/internal/schema"
	"flowsched/internal/workload"
)

func main() {
	kind := flag.String("kind", "layered", "schema kind: layered, fig4, asic, board, analog")
	depth := flag.Int("depth", 4, "layers of activities (layered)")
	width := flag.Int("width", 4, "activities per layer (layered)")
	fanin := flag.Int("fanin", 2, "inputs per activity (layered)")
	seed := flag.Int64("seed", 1, "generator seed (layered)")
	flag.Parse()

	switch src, ok := workload.Builtins[*kind]; {
	case ok:
		fmt.Print(schema.MustParse(src).Format())
	case *kind == "layered":
		sch, err := workload.Layered(workload.LayeredConfig{
			Depth: *depth, Width: *width, FanIn: *fanin, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowgen:", err)
			os.Exit(1)
		}
		fmt.Print(sch.Format())
	default:
		fmt.Fprintf(os.Stderr, "flowgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
}
