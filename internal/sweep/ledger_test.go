package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gfcube/internal/core"
)

// ledgerGrid is the survey grid of the ledger tests: every class of
// length 1..4, scanned up to d = 7.
var ledgerGrid = GridSpec{MaxLen: 4, MaxD: 7}

// surveyOracle is Survey's answer for spec, the rows every ledger path
// must reproduce.
func surveyOracle(t *testing.T, spec GridSpec) []SurveyRow {
	t.Helper()
	rows, err := Survey(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// specJSONOf is the ledger header of spec.
func specJSONOf(t *testing.T, spec GridSpec) []byte {
	t.Helper()
	spec, err := spec.normalized(core.MaxBuildDim)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := ledgerSpecJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	return specJSON
}

// fillLedger writes a fresh ledger for spec holding the survey records of
// the given grid indexes, appended in that order, and returns its path.
func fillLedger(t *testing.T, spec GridSpec, order []int) string {
	t.Helper()
	rows := surveyOracle(t, spec)
	path := filepath.Join(t.TempDir(), "run.gfcl")
	l, err := createLedger(path, specJSONOf(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		if err := l.append(newSurveyRecord(i, rows[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// gridOrder is 0..n-1.
func gridOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// resumeSurvey runs SurveyLedger on path and returns its rows and the
// done counts it reported, one per class it computed.
func resumeSurvey(t *testing.T, spec GridSpec, path string) ([]SurveyRow, []int) {
	t.Helper()
	var done []int
	rows, err := SurveyLedger(context.Background(), spec, path, Options{
		Workers:  2,
		Progress: func(d, _ int) { done = append(done, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, done
}

// readLedger opens path for the ledger grid and returns its valid records
// and the file size after the open's truncation.
func readLedger(t *testing.T, path string) ([]surveyRecord, int64) {
	t.Helper()
	l, recs, err := openLedger(path, specJSONOf(t, ledgerGrid))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, st.Size()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestLedgerRoundTrip(t *testing.T) {
	n := len(ClassTasks(1, ledgerGrid.MaxLen))
	path := fillLedger(t, ledgerGrid, gridOrder(n))
	size := fileSize(t, path)
	recs, after := readLedger(t, path)
	if after != size {
		t.Fatalf("clean reopen truncated %d -> %d bytes", size, after)
	}
	rows := surveyOracle(t, ledgerGrid)
	if len(recs) != n {
		t.Fatalf("reopen read %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if want := newSurveyRecord(i, rows[i]); rec != want {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
}

// A reopened ledger keeps its records, trims nothing, and continues the
// chain: a record appended after the reopen verifies on the next open.
func TestLedgerAppendAfterReopen(t *testing.T) {
	rows := surveyOracle(t, ledgerGrid)
	path := fillLedger(t, ledgerGrid, []int{0})
	size := fileSize(t, path)
	l, recs, err := openLedger(path, specJSONOf(t, ledgerGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || fileSize(t, path) != size {
		t.Fatalf("reopen: %d records, size %d -> %d; want 1 record, no truncation", len(recs), size, fileSize(t, path))
	}
	if err := l.append(newSurveyRecord(1, rows[1])); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	recs, _ = readLedger(t, path)
	if len(recs) != 2 || recs[0] != newSurveyRecord(0, rows[0]) || recs[1] != newSurveyRecord(1, rows[1]) {
		t.Fatalf("append after reopen: records %+v, want grid indexes 0 and 1", recs)
	}
}

func TestSurveyLedgerMatchesSurvey(t *testing.T) {
	want := surveyOracle(t, ledgerGrid)
	path := filepath.Join(t.TempDir(), "run.gfcl")
	got, done := resumeSurvey(t, ledgerGrid, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger survey differs from Survey:\n%+v\nvs\n%+v", got, want)
	}
	if len(done) != len(want) || done[0] != 1 || done[len(done)-1] != len(want) {
		t.Fatalf("progress reported %v, want 1..%d", done, len(want))
	}
	// Appends land in delivery order, which is grid order.
	recs, _ := readLedger(t, path)
	for i, rec := range recs {
		if rec != newSurveyRecord(i, want[i]) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}

func TestSurveyLedgerInterruptAndResume(t *testing.T) {
	want := surveyOracle(t, ledgerGrid)
	path := filepath.Join(t.TempDir(), "run.gfcl")
	ctx, cancel := context.WithCancel(context.Background())
	const stopAt = 3
	_, err := SurveyLedger(ctx, ledgerGrid, path, Options{Workers: 2, Progress: func(done, _ int) {
		if done == stopAt {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	recs, _ := readLedger(t, path)
	held := len(recs)
	if held < stopAt || held >= len(want) {
		t.Fatalf("cancelled run left %d of %d classes, want at least %d", held, len(want), stopAt)
	}
	got, done := resumeSurvey(t, ledgerGrid, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed survey differs from Survey")
	}
	if len(done) != len(want)-held || done[0] != held+1 {
		t.Fatalf("resume computed %d classes starting at %v, want %d from %d", len(done), done, len(want)-held, held+1)
	}
}

// A ledger appended in completion order, not grid order (as the
// multi-process coordinator of earlier releases wrote them), resumes to
// the same rows, and a complete ledger recomputes nothing.
func TestSurveyLedgerResumesCompletionOrderLedger(t *testing.T) {
	want := surveyOracle(t, ledgerGrid)
	order := rand.New(rand.NewSource(1)).Perm(len(want))
	held := len(order) / 2
	path := fillLedger(t, ledgerGrid, order[:held])
	got, done := resumeSurvey(t, ledgerGrid, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed shuffled ledger differs from Survey")
	}
	if len(done) != len(want)-held {
		t.Fatalf("resume computed %d classes, want %d", len(done), len(want)-held)
	}
	size := fileSize(t, path)
	got, done = resumeSurvey(t, ledgerGrid, path)
	if !reflect.DeepEqual(got, want) || len(done) != 0 {
		t.Fatalf("complete ledger: rows equal=%v, recomputed %d classes", reflect.DeepEqual(got, want), len(done))
	}
	if after := fileSize(t, path); after != size {
		t.Fatalf("complete ledger changed size %d -> %d", size, after)
	}
}

func TestLedgerSpecMismatch(t *testing.T) {
	path := fillLedger(t, ledgerGrid, []int{0, 1})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := ledgerGrid
	other.MaxD++
	_, err = SurveyLedger(context.Background(), other, path, Options{})
	if !errors.Is(err, ErrLedgerGridMismatch) || errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("open with another grid: err = %v, want ErrLedgerGridMismatch only", err)
	}
	for _, part := range []string{`"maxD":7`, `"maxD":8`, "new ledger path"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("mismatch message %q lacks %q", err, part)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused ledger was modified")
	}
}

// ledgerLayout returns the byte offsets of every record in the file, so
// corruption tests can aim precisely.
func ledgerLayout(data []byte) []int64 {
	specLen := binary.LittleEndian.Uint32(data[12:])
	off := int64(ledgerHdrSize + int(specLen))
	var offsets []int64
	for off < int64(len(data)) {
		offsets = append(offsets, off)
		plen := binary.LittleEndian.Uint32(data[off+4:])
		off += int64(recordHdrSize) + int64(plen)
	}
	return offsets
}

// corruptResume damages a complete ledger with mutate, then asserts that
// opening it keeps exactly wantValid records and truncates the rest, and
// that resuming recomputes exactly the lost classes to Survey's rows.
func corruptResume(t *testing.T, mutate func(data []byte, offsets []int64) []byte, wantValid func(records int) int) {
	t.Helper()
	want := surveyOracle(t, ledgerGrid)
	path := fillLedger(t, ledgerGrid, gridOrder(len(want)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := mutate(append([]byte(nil), data...), ledgerLayout(data))
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, size := readLedger(t, path)
	valid := wantValid(len(want))
	if len(recs) != valid {
		t.Fatalf("valid prefix has %d records, want %d", len(recs), valid)
	}
	if size >= int64(len(damaged)) {
		t.Fatalf("open kept all %d bytes of a damaged ledger", size)
	}
	got, done := resumeSurvey(t, ledgerGrid, path)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed survey differs from Survey")
	}
	if len(done) != len(want)-valid {
		t.Fatalf("resume computed %d classes, want %d", len(done), len(want)-valid)
	}
	if recs, _ := readLedger(t, path); len(recs) != len(want) {
		t.Fatalf("healed ledger holds %d records, want %d", len(recs), len(want))
	}
}

func TestLedgerCorruptionTornTail(t *testing.T) {
	corruptResume(t, func(data []byte, offsets []int64) []byte {
		// Cut mid-way through the last record's payload.
		last := offsets[len(offsets)-1]
		return data[:last+recordHdrSize+2]
	}, func(n int) int { return n - 1 })
}

func TestLedgerCorruptionFlippedMiddleByte(t *testing.T) {
	corruptResume(t, func(data []byte, offsets []int64) []byte {
		// Flip one payload byte of a middle record: its checksum fails and
		// the prefix ends right before it.
		mid := offsets[len(offsets)/2]
		data[mid+recordHdrSize] ^= 0x01
		return data
	}, func(n int) int { return n / 2 })
}

func TestLedgerCorruptionWrongChainHash(t *testing.T) {
	corruptResume(t, func(data []byte, offsets []int64) []byte {
		// Rewrite a middle record's chain hash: payload and checksum stay
		// consistent, but the link to the predecessor breaks — the
		// tamper-evidence property, not just bit rot.
		mid := offsets[len(offsets)/2]
		data[mid+48] ^= 0xFF
		return data
	}, func(n int) int { return n / 2 })
}

func TestLedgerScanMoreDamageVariants(t *testing.T) {
	for name, corrupt := range map[string]func(data []byte, offs []int64) []byte{
		"record magic": func(data []byte, offs []int64) []byte {
			data[offs[1]] ^= 0xFF
			return data
		},
		"sequence number": func(data []byte, offs []int64) []byte {
			data[offs[1]+8] ^= 0x01
			return data
		},
		"payload length bound": func(data []byte, offs []int64) []byte {
			binary.LittleEndian.PutUint32(data[offs[1]+4:], maxPayloadSize+1)
			return data
		},
		"payload is not a survey record": func(data []byte, offs []int64) []byte {
			// A correctly framed and chained record whose payload is not
			// JSON: every hash checks out, the decode still ends the prefix.
			var prev [32]byte
			copy(prev[:], data[offs[0]+48:offs[0]+80])
			payload := []byte("{not json")
			psum := sha256.Sum256(payload)
			next := chainHash(prev, 1, psum)
			hdr := make([]byte, recordHdrSize)
			copy(hdr, recordMagic)
			binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
			binary.LittleEndian.PutUint64(hdr[8:], 1)
			copy(hdr[16:], psum[:])
			copy(hdr[48:], next[:])
			return append(append(data[:offs[1]:offs[1]], hdr...), payload...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			corruptResume(t, corrupt, func(int) int { return 1 })
		})
	}
}

func TestLedgerHeaderCorruptionFailsClosed(t *testing.T) {
	path := fillLedger(t, ledgerGrid, []int{0, 1, 2})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":     func(d []byte) []byte { d[0] ^= 0xFF; return d },
		"bad version":   func(d []byte) []byte { d[8] = 99; return d },
		"spec length":   func(d []byte) []byte { binary.LittleEndian.PutUint32(d[12:], maxSpecLen+1); return d },
		"spec checksum": func(d []byte) []byte { d[ledgerHdrSize] ^= 0x01; return d },
		"truncated":     func(d []byte) []byte { return d[:10] },
	} {
		damaged := mutate(append([]byte(nil), data...))
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := SurveyLedger(context.Background(), ledgerGrid, path, Options{})
		if !errors.Is(err, ErrLedgerCorrupt) || errors.Is(err, ErrLedgerGridMismatch) {
			t.Errorf("%s: err = %v, want ErrLedgerCorrupt", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
			t.Errorf("%s: a refused ledger was modified", name)
		}
	}
}

func TestCreateLedgerRefusesExisting(t *testing.T) {
	path := fillLedger(t, ledgerGrid, []int{0})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := createLedger(path, specJSONOf(t, ledgerGrid)); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("createLedger over an existing ledger: err = %v, want fs.ErrExist", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("createLedger modified an existing ledger")
	}
}

func TestLedgerCloseTwice(t *testing.T) {
	l, err := createLedger(filepath.Join(t.TempDir(), "run.gfcl"), specJSONOf(t, ledgerGrid))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err == nil {
		t.Fatal("second close on a closed ledger succeeded")
	}
}

func TestOpenLedgerMissingFileIsNotExist(t *testing.T) {
	_, _, err := openLedger(filepath.Join(t.TempDir(), "absent.gfcl"), specJSONOf(t, ledgerGrid))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// Records that do not name their grid cell are refused, not trusted.
func TestSurveyLedgerRejectsRecordOutsideGrid(t *testing.T) {
	rows := surveyOracle(t, ledgerGrid)
	for name, rec := range map[string]surveyRecord{
		"index past the grid": newSurveyRecord(len(rows), rows[0]),
		"negative index":      newSurveyRecord(-1, rows[0]),
		"wrong class":         newSurveyRecord(1, rows[0]),
	} {
		path := filepath.Join(t.TempDir(), "run.gfcl")
		l, err := createLedger(path, specJSONOf(t, ledgerGrid))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		if _, err := SurveyLedger(context.Background(), ledgerGrid, path, Options{}); !errors.Is(err, ErrLedgerCorrupt) {
			t.Errorf("%s: err = %v, want ErrLedgerCorrupt", name, err)
		}
	}
}

// The ledger path validates its grid exactly as Survey does, before it
// creates any file.
func TestSurveyLedgerValidatesLikeSurvey(t *testing.T) {
	for name, spec := range map[string]GridSpec{
		"maxd past the build cap": {MaxLen: 3, MaxD: core.MaxBuildDim + 1},
		"maxlen below minlen":     {MinLen: 4, MaxLen: 3, MaxD: 8},
		"maxd below mind":         {MaxLen: 3, MinD: 9, MaxD: 8},
	} {
		_, want := Survey(context.Background(), spec, Options{})
		if want == nil {
			t.Fatalf("%s: Survey accepted %+v", name, spec)
		}
		path := filepath.Join(t.TempDir(), "run.gfcl")
		_, err := SurveyLedger(context.Background(), spec, path, Options{})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: SurveyLedger err = %v, Survey err = %v", name, err, want)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: a refused grid left a ledger file behind (stat: %v)", name, err)
		}
	}
}

func TestSurveyLedgerRejectsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SurveyLedger(ctx, ledgerGrid, filepath.Join(t.TempDir(), "run.gfcl"), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}
