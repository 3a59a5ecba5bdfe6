package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Short runs must pass their own oracle checks, report exactly the
// declared metrics for their mode, and a traced run must leave its spans.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up full-size clusters")
	}
	for _, tc := range []struct{ workload, trace string }{
		{"churn-push", "1"},
		{"batch-zipf", "0"},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		code := run([]string{"--workload", tc.workload, "--seed", "9", "--seconds", "1",
			"--trace", tc.trace, "--trace-dir", dir}, nil, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v\n%s", tc.workload, err, out.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: exit %d, result %+v\n%s", tc.workload, code, res, out.String())
		}
		if err := checkMetrics(res.Metrics, tc.trace == "1"); err != nil {
			t.Errorf("%s: %v", tc.workload, err)
		}
		if tc.trace == "1" {
			if _, err := os.Stat(filepath.Join(dir, tc.workload+".spans.tsv.gz")); err != nil {
				t.Errorf("%s: no spans written: %v", tc.workload, err)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn-push", "--trace", "2"},
		{"--workload", "churn-push", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, nil, &out); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, printed %q; want a failure and no result", args, code, out.String())
		}
	}
}
