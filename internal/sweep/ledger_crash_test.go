//go:build unix

package sweep

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// crashHelperEnv names the ledger path the re-executed test binary
// surveys into; when it is set, TestSurveyLedgerCrashResume runs as the
// helper process instead of the test.
const crashHelperEnv = "GFCUBE_LEDGER_CRASH_HELPER"

// crashGrid has 22 classes (every class of length 1..5), enough to kill
// the helper with most of the grid still to compute.
var crashGrid = GridSpec{MaxLen: 5, MaxD: 9}

// crashAppends is how many appends the helper makes before it reports
// ready and blocks; the parent then tears the last of them.
const crashAppends = 8

// crashHelper surveys crashGrid into path and, from inside the Progress
// callback of its crashAppends-th append, prints "ready" and blocks on
// stdin until it is killed. Each append has reached the kernel by then,
// so the ledger holds exactly crashAppends records when the SIGKILL lands.
func crashHelper(path string) {
	_, err := SurveyLedger(context.Background(), crashGrid, path, Options{Workers: 2, Progress: func(done, _ int) {
		if done == crashAppends {
			os.Stdout.WriteString("ready\n")
			io.Copy(io.Discard, os.Stdin) // returns only if the parent dies
			os.Exit(3)
		}
	}})
	if err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
	}
	os.Exit(2) // reaching here means the survey finished without blocking
}

// TestSurveyLedgerCrashResume is the ledger's crash gate: a real process
// is SIGKILLed at a known durable point, its ledger's tail is torn, and
// an in-process resume must recompute exactly the lost classes and match
// Survey row for row.
func TestSurveyLedgerCrashResume(t *testing.T) {
	if path := os.Getenv(crashHelperEnv); path != "" {
		crashHelper(path)
		return
	}
	path := filepath.Join(t.TempDir(), "crash.gfcl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSurveyLedgerCrashResume$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+path)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := false
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		if sc.Text() == "ready" {
			ready = true
			break
		}
	}
	if !ready {
		cmd.Wait()
		t.Fatal("helper exited without reporting ready")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die by SIGKILL: %v", err)
	}

	// Tear the last append: a crash mid-write leaves a record prefix.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	const kept = crashAppends - 1

	var done []int
	got, err := SurveyLedger(context.Background(), crashGrid, path, Options{
		Workers:  2,
		Progress: func(d, _ int) { done = append(done, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Survey(context.Background(), crashGrid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 20 {
		t.Fatalf("crash grid has %d classes, want at least 20", len(want))
	}
	if len(done) != len(want)-kept || done[0] != kept+1 {
		t.Fatalf("resume computed %d classes starting at %v, want %d (N - k) from %d", len(done), done, len(want)-kept, kept+1)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed survey differs from Survey:\n%+v\nvs\n%+v", got, want)
	}
	// The healed ledger verifies whole on the next open.
	l, recs, err := openLedger(path, specJSONOf(t, crashGrid))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("healed ledger holds %d valid records, want %d", len(recs), len(want))
	}
}
