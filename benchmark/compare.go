package main

// suite runs every workload several times into one result file;
// compare judges a new result file against an old one with each
// metric's bound. Both refuse to mix results from different
// environments: the fingerprint travels with every file.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"

	"elsi/internal/floats"
)

// fingerprint is what must match for two result files to be comparable.
// Commit is recorded but not compared: comparing commits is the point.
type fingerprint struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	Fsync      string `json:"fsync"`
	TempFS     string `json:"temp_fs"`
	Commit     string `json:"commit"`
}

func takeFingerprint(root string) fingerprint {
	fp := fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		Go:         runtime.Version(),
		Fsync:      durableFsync,
		TempFS:     "unknown",
		Commit:     "unknown",
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(mkBuildDir(root), &st); err == nil {
		fp.TempFS = fmt.Sprintf("0x%x", uint64(st.Type))
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (fp fingerprint) comparable(other fingerprint) bool {
	fp.Commit, other.Commit = "", ""
	return fp == other
}

// resultFile is what suite writes and compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	RunSeconds  float64     `json:"run_seconds"`
	Runs        []runResult `json:"runs"`
}

func suiteMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark suite", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "end-to-end runs per workload, on seeds seed, seed+1, ...")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 20, "measured time of each run")
	traced := fs.Int("traced", 1, "traced runs per workload")
	only := fs.String("workload", "", "run only this workload")
	out := fs.String("out", "", "result file to write (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("suite: -out is required")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Fingerprint: takeFingerprint(root), RunSeconds: *seconds}
	for _, w := range workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		for i := 0; i < *runs+*traced; i++ {
			s, tr := *seed+int64(i), 0
			if i >= *runs {
				s, tr = *seed+int64(i-*runs), 1
			}
			// a process per run, as the driver does it: peak memory and
			// warm-up state never leak from one run into the next
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(tr))
			cmd.Dir = root
			var report bytes.Buffer
			cmd.Stderr = io.MultiWriter(os.Stderr, &report)
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.Name, s, tr, err)
			}
			res, err := parseLastLine(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.Name, s, tr, err)
			}
			res.Workload, res.Seed, res.Trace = w.Name, s, tr == 1
			res.Notes = parseNotes(report.Bytes())
			file.Runs = append(file.Runs, *res)
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

// parseLastLine reads the contract's result line back.
func parseLastLine(stdout []byte) (*runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	res := &runResult{Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
	for name, v := range line.Metrics {
		res.Metrics[name] = v.Value
	}
	return res, nil
}

// parseNotes reads the notes back from a run's report on standard
// error: the result line has no room for them, and a result file that
// says an operation failed should also say why.
func parseNotes(report []byte) map[string]string {
	notes := map[string]string{}
	for _, m := range noteLine.FindAllSubmatch(report, -1) {
		notes[string(m[1])] = string(m[2])
	}
	return notes
}

var noteLine = regexp.MustCompile(`(?m)^  note ([a-z_0-9]+): (.*)$`)

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			vs = append(vs, v)
		}
	}
	return vs
}

// tally is the correctness of one workload over a file's runs: failed
// operations, runs that were not correct, and the first reason recorded.
type tally struct {
	runs, failed, incorrect int
	reason                  string
}

func (f *resultFile) tally(workload string) tally {
	var t tally
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		t.runs++
		t.failed += r.Failed
		if !r.Correct {
			t.incorrect++
			if t.reason == "" {
				t.reason = r.Notes["first_error"]
			}
		}
	}
	return t
}

// spread is the inter-quartile distance as a share of the median, the
// driver's own measure; too few runs have no spread to speak of.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vs)
	if floats.Eq(q2, 0) {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict applies a bound: how much worse the new median may be, as a
// share of the old one.
func verdict(d metricDef, old, new []float64) string {
	if spread(old) > d.Bound || spread(new) > d.Bound {
		return "unresolved"
	}
	om, nm := median(old), median(new)
	if floats.Eq(om, 0) {
		return "unresolved"
	}
	worse := (nm - om) / om
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "no-change"
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare old.json new.json")
	}
	old, err := loadResults(args[0])
	if err != nil {
		return err
	}
	new, err := loadResults(args[1])
	if err != nil {
		return err
	}
	if !old.Fingerprint.comparable(new.Fingerprint) || !floats.Eq(old.RunSeconds, new.RunSeconds) {
		return fmt.Errorf("the two files were measured in different environments:\n old %+v, %v s\n new %+v, %v s",
			old.Fingerprint, old.RunSeconds, new.Fingerprint, new.RunSeconds)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\told spread\tnew spread\tbound\tverdict")
	worse := 0
	var reasons []string
	// correctness first: no timing counts for a change that fails
	// operations the parent completed
	for _, w := range workloads {
		o, n := old.tally(w.Name), new.tally(w.Name)
		if o.runs == 0 || n.runs == 0 {
			continue
		}
		v := "no-change"
		switch {
		case n.failed > o.failed || n.incorrect > 0:
			v = "worse"
			worse++
			reasons = append(reasons, fmt.Sprintf("%s: %d of %d runs in %s not correct; first failure: %s", w.Name, n.incorrect, n.runs, args[1], n.reason))
		case n.failed < o.failed:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed_ops\t%d count\t%d count\t-\t-\t-\t0\t%s\n", w.Name, o.failed, n.failed, v)
	}
	row := func(w workload, d metricDef, traced bool) {
		o, n := old.values(w.Name, d.Name, traced), new.values(w.Name, d.Name, traced)
		if len(o) == 0 || len(n) == 0 {
			return
		}
		om, nm := median(o), median(n)
		if floats.Eq(om, offPath) && floats.Eq(nm, offPath) {
			return // nothing to measure on this workload
		}
		v, bound := "-", "-"
		if !traced {
			v, bound = verdict(d, o, n), fmt.Sprintf("%.2f", d.Bound)
			if v == "worse" {
				worse++
			}
		}
		change := 0.0
		if !floats.Eq(om, 0) {
			change = (nm - om) / om
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\t%s\n",
			w.Name, d.Name, om, d.Unit, nm, d.Unit, 100*change, 100*spread(o), 100*spread(n), bound, v)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			row(w, d, false)
		}
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			row(w, d, true)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range reasons {
		fmt.Println(r)
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse: failed operations, or an end-to-end metric past its bound", worse)
	}
	return nil
}
