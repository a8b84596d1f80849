// Command benchmark is the repo's benchmark: four workloads measured
// end to end against an elsid child process (tracing off), and, in a
// separate traced run, the same seeded streams replayed at every
// boundary of an in-process copy of the stack to say which layer the
// time went to. BENCHMARK.json at the repo root is its contract.
//
//	go run ./benchmark -workload served_point -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload served_point -seed 1 -seconds 20 -trace 1
//	go run ./benchmark suite -runs 10 -seed 1 -out old.json
//	go run ./benchmark compare old.json new.json
//
// The last line of standard output of a run is one JSON object:
// correct, attempted, failed and the metrics by name with their units.
// Everything for people goes to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "suite":
			return suiteMain(ctx, args[1:])
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: served_point, served_hot_mix, durable_drift or lib_elsi")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured time, shared equally by the run's launches")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced boundary replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("-workload %q: want one of %v", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", *seconds)
	}
	res, err := runOne(ctx, w, *seed, *seconds, *trace != 0)
	if err != nil {
		return err
	}
	return printResult(res)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func runOne(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	var res *runResult
	var err error
	if traced {
		res, err = runTraced(ctx, w, seed, seconds, os.Stderr)
	} else {
		res, err = runEndToEnd(ctx, w, seed, seconds, launchesPerRun)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	report(res)
	return res, nil
}

// report prints the run for people.
func report(res *runResult) {
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v clients=%d ops_attempted=%d ops_failed=%d\n",
		res.Workload, res.Seed, res.Trace, numClients(), res.Attempted, res.Failed)
	for _, d := range declared(res.Trace) {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	notes := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(os.Stderr, "  note %s: %s\n", k, res.Notes[k])
	}
}

func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes the contract's last line.
func printResult(res *runResult) error {
	line, err := encodeResult(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// encodeResult is the result line: every declared metric of the run's
// mode once, with its unit.
func encodeResult(res *runResult) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range declared(res.Trace) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(out)
}
