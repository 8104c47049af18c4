package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"gfcube/internal/core"
)

// The results ledger is an append-only file of hash-chained records, one
// per surveyed factor class. Each record carries the SHA-256 of its own
// payload and a chain hash over (previous chain hash, sequence number,
// payload hash), seeded from the hash of the grid header — the same
// store-the-artifact / anchor-the-hash discipline as internal/store's
// containers, applied to an experiment log. The chain makes the ledger
// tamper-evident and gives interruption a precise meaning: however a run
// dies (SIGKILL, torn tail write, a flipped byte on disk), the longest
// valid chained prefix is unambiguous, and a resumed run restarts from
// exactly there, recomputing forward.
//
// Layout (all integers little-endian):
//
//	header:
//	  0   8   magic "GFCLDG01"
//	  8   4   format version (uint32, currently 1)
//	  12  4   spec JSON length S (uint32)
//	  16  32  SHA-256 of the spec JSON
//	  48  S   spec JSON (canonical encoding of ledgerSpec)
//	record i (seq = i, starting at 0):
//	  0   4   record magic "GFCR"
//	  4   4   payload length N (uint32)
//	  8   8   seq (uint64)
//	  16  32  SHA-256 of payload
//	  48  32  chain hash: SHA-256(prev chain || seq || payload hash),
//	          where record 0's prev chain is SHA-256("gfcledger1|" || spec JSON)
//	  80  N   payload (canonical surveyRecord JSON)
//
// Verification ladder on open: header magic -> version -> spec hash ->
// spec equals the run's grid -> per record: magic -> length bounds ->
// seq -> payload hash -> chain hash. A header failure is an error; the
// first record failure ends the valid prefix, and everything after it is
// truncated away before the ledger is appended to.

const (
	ledgerVersion  = 1 // on-disk format version
	ledgerMagic    = "GFCLDG01"
	recordMagic    = "GFCR"
	ledgerHdrSize  = 48
	recordHdrSize  = 80
	maxSpecLen     = 1 << 16 // sanity bound when reading untrusted headers
	maxPayloadSize = 1 << 24 // per-record payload sanity bound (16 MiB)
	ledgerSyncEach = 32      // appends between fsyncs
)

var (
	// ErrLedgerCorrupt reports a file whose header cannot be trusted: not
	// a ledger, an unknown format version, or a spec that fails its
	// checksum. Record-level damage is NOT an error — it just ends the
	// valid prefix.
	ErrLedgerCorrupt = errors.New("sweep: corrupt ledger")
	// ErrLedgerGridMismatch reports a sound ledger that records a
	// different grid than the run asks for. The file is intact; it just
	// cannot be resumed by this run.
	ErrLedgerGridMismatch = errors.New("sweep: ledger records another grid")
)

// ledgerSpec is the grid header bound into a ledger. Its canonical JSON
// ({"op":"survey",...}) is hashed into the chain seed of every ledger
// ever written, so the shape and field order are frozen.
type ledgerSpec struct {
	Op     string `json:"op"`
	MinLen int    `json:"minLen"`
	MaxLen int    `json:"maxLen"`
	MinD   int    `json:"minD"`
	MaxD   int    `json:"maxD"`
	Method string `json:"method"`
}

// ledgerSpecJSON is the canonical header of a normalized survey grid.
func ledgerSpecJSON(spec GridSpec) ([]byte, error) {
	return json.Marshal(ledgerSpec{
		Op: "survey", MinLen: spec.MinLen, MaxLen: spec.MaxLen,
		MinD: spec.MinD, MaxD: spec.MaxD, Method: spec.Method.String(),
	})
}

// surveyRecord is the payload of one surveyed class: I is the class's
// position in grid order (ClassTasks order), F its canonical
// representative, and D is always -1 (the class scans a range of d).
// Payload bytes are the canonical json.Marshal of this struct.
type surveyRecord struct {
	I         int    `json:"i"`
	F         string `json:"f"`
	ClassSize int    `json:"classSize"`
	D         int    `json:"d"`
	V         struct {
		FirstFail int    `json:"firstFail"`
		Theory    string `json:"theory"`
	} `json:"v"`
}

// newSurveyRecord is the ledger record of row, the class at grid index i.
func newSurveyRecord(i int, row SurveyRow) surveyRecord {
	rec := surveyRecord{I: i, F: row.Class.Rep.String(), ClassSize: row.Class.Size, D: -1}
	rec.V.FirstFail, rec.V.Theory = row.FirstFail, row.Theory
	return rec
}

// chainSeed is H_{-1}: the chain anchor derived from the spec JSON.
func chainSeed(specJSON []byte) [32]byte {
	return sha256.Sum256(append([]byte("gfcledger1|"), specJSON...))
}

func chainHash(prev [32]byte, seq uint64, payloadSum [32]byte) [32]byte {
	var buf [32 + 8 + 32]byte
	copy(buf[:], prev[:])
	binary.LittleEndian.PutUint64(buf[32:], seq)
	copy(buf[40:], payloadSum[:])
	return sha256.Sum256(buf[:])
}

// ledger is an open results ledger positioned for append after its valid
// prefix. It is not safe for concurrent use.
type ledger struct {
	f     *os.File
	chain [32]byte // chain hash of the last record
	seq   uint64   // next sequence number
}

// createLedger creates a fresh ledger at path bound to specJSON. It fails
// if path already exists: an existing ledger must be opened with
// openLedger to resume, never silently overwritten.
func createLedger(path string, specJSON []byte) (*ledger, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: create ledger: %w", err)
	}
	hdr := make([]byte, ledgerHdrSize, ledgerHdrSize+len(specJSON))
	copy(hdr, ledgerMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ledgerVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(specJSON)))
	sum := sha256.Sum256(specJSON)
	copy(hdr[16:], sum[:])
	hdr = append(hdr, specJSON...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: create ledger: %w", err)
	}
	return &ledger{f: f, chain: chainSeed(specJSON)}, nil
}

// openLedger opens an existing ledger for append: it verifies the header,
// requires its spec to equal specJSON, truncates everything past the
// valid chained prefix, and returns that prefix's records in append
// order. A missing file is reported as fs.ErrNotExist.
func openLedger(path string, specJSON []byte) (*ledger, []surveyRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: open ledger: %w", err)
	}
	scan, err := scanLedger(path, data, specJSON)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: open ledger: %w", err)
	}
	if err := f.Truncate(scan.valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: truncate ledger to valid prefix: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &ledger{f: f, chain: scan.chain, seq: uint64(len(scan.records))}, scan.records, nil
}

// ledgerScan is the valid prefix of a ledger file.
type ledgerScan struct {
	records []surveyRecord
	chain   [32]byte // chain hash of the last valid record (the seed if none)
	valid   int64    // offset of the first byte past the valid prefix
}

// scanLedger walks data, the contents of the ledger file at path,
// verifying the header against specJSON and every record link, and
// returns the valid prefix. Header-level failures are errors; record
// damage ends the prefix.
func scanLedger(path string, data, specJSON []byte) (ledgerScan, error) {
	if len(data) < ledgerHdrSize {
		return ledgerScan{}, fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrLedgerCorrupt, path, len(data), ledgerHdrSize)
	}
	if string(data[:8]) != ledgerMagic {
		return ledgerScan{}, fmt.Errorf("%w: %s: bad magic", ErrLedgerCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ledgerVersion {
		return ledgerScan{}, fmt.Errorf("%w: %s: format version %d, reader supports %d", ErrLedgerCorrupt, path, v, ledgerVersion)
	}
	specLen := binary.LittleEndian.Uint32(data[12:])
	if specLen > maxSpecLen || ledgerHdrSize+int(specLen) > len(data) {
		return ledgerScan{}, fmt.Errorf("%w: %s: spec length %d out of bounds", ErrLedgerCorrupt, path, specLen)
	}
	have := data[ledgerHdrSize : ledgerHdrSize+int(specLen)]
	if sum := sha256.Sum256(have); !bytes.Equal(sum[:], data[16:48]) {
		return ledgerScan{}, fmt.Errorf("%w: %s: spec checksum mismatch", ErrLedgerCorrupt, path)
	}
	if !bytes.Equal(have, specJSON) {
		return ledgerScan{}, fmt.Errorf("%w: %s holds grid %s, this run asks for %s; rerun with the ledger's grid or use a new ledger path",
			ErrLedgerGridMismatch, path, have, specJSON)
	}

	scan := ledgerScan{chain: chainSeed(specJSON), valid: ledgerHdrSize + int64(specLen)}
	for seq := uint64(0); ; seq++ {
		rest := data[scan.valid:]
		if len(rest) < recordHdrSize || string(rest[:4]) != recordMagic {
			break // clean end, torn record header or bad record magic
		}
		plen := binary.LittleEndian.Uint32(rest[4:])
		if plen > maxPayloadSize || recordHdrSize+int64(plen) > int64(len(rest)) {
			break // length past the bound, or a torn payload
		}
		if binary.LittleEndian.Uint64(rest[8:]) != seq {
			break
		}
		payload := rest[recordHdrSize : recordHdrSize+int(plen)]
		psum := sha256.Sum256(payload)
		if !bytes.Equal(psum[:], rest[16:48]) {
			break
		}
		next := chainHash(scan.chain, seq, psum)
		if !bytes.Equal(next[:], rest[48:80]) {
			break
		}
		var rec surveyRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		scan.chain = next
		scan.records = append(scan.records, rec)
		scan.valid += recordHdrSize + int64(plen)
	}
	return scan, nil
}

// append chains and writes one record. The write reaches the kernel
// before append returns, so a SIGKILL after it loses nothing; only power
// loss can lose appends made since the last sync.
func (l *ledger) append(rec surveyRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(payload) > maxPayloadSize {
		return fmt.Errorf("sweep: record payload %d bytes exceeds bound", len(payload))
	}
	psum := sha256.Sum256(payload)
	next := chainHash(l.chain, l.seq, psum)
	buf := make([]byte, recordHdrSize, recordHdrSize+len(payload))
	copy(buf, recordMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], l.seq)
	copy(buf[16:], psum[:])
	copy(buf[48:], next[:])
	buf = append(buf, payload...)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("sweep: append record: %w", err)
	}
	l.chain = next
	l.seq++
	return nil
}

// close syncs and closes the underlying file.
func (l *ledger) close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// SurveyLedger is Survey made durable: every surveyed class is appended
// to the hash-chained results ledger at path as soon as it is delivered,
// and a run over an existing ledger computes only the classes it lacks.
// The ledger is created when path does not exist; an existing one must
// record the same grid (ErrLedgerGridMismatch otherwise). After a crash,
// Ctrl-C or torn write, calling SurveyLedger again with the same grid
// completes the survey, and the rows equal Survey's row for row.
//
// Missing classes run through Stream with Survey's per-class body.
// opts.Progress is called after each append with (classes in the ledger,
// total), not per engine completion. The ledger is fsynced every 32
// appends and on return.
func SurveyLedger(ctx context.Context, spec GridSpec, path string, opts Options) (rows []SurveyRow, err error) {
	spec, err = spec.normalized(core.MaxBuildDim)
	if err != nil {
		return nil, err
	}
	specJSON, err := ledgerSpecJSON(spec)
	if err != nil {
		return nil, err
	}
	l, held, err := openLedger(path, specJSON)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = createLedger(path, specJSON)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := l.close(); err == nil && cerr != nil {
			rows, err = nil, cerr
		}
	}()

	tasks := ClassTasks(spec.MinLen, spec.MaxLen)
	rows = make([]SurveyRow, len(tasks))
	have := make([]bool, len(tasks))
	done := 0
	for _, rec := range held {
		if rec.I < 0 || rec.I >= len(tasks) || rec.F != tasks[rec.I].Class.Rep.String() {
			return nil, fmt.Errorf("%w: %s: record for class %q at index %d is not in the grid", ErrLedgerCorrupt, path, rec.F, rec.I)
		}
		if !have[rec.I] {
			have[rec.I] = true
			done++
		}
		rows[rec.I] = SurveyRow{Class: tasks[rec.I].Class, FirstFail: rec.V.FirstFail, Theory: rec.V.Theory}
	}
	// missing[j] is the grid index of todo[j].
	var missing []int
	var todo []Task
	for i, t := range tasks {
		if !have[i] {
			missing = append(missing, i)
			todo = append(todo, t)
		}
	}

	// The cancel stops the stream if a failed append returns early.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	progress := opts.Progress
	opts.Progress = nil
	appended := 0
	for r := range Stream(ctx, todo, surveyFn(spec), opts) {
		if r.Err != nil {
			return nil, r.Err
		}
		i := missing[r.Seq]
		row := r.Value.(SurveyRow)
		if err := l.append(newSurveyRecord(i, row)); err != nil {
			return nil, err
		}
		rows[i] = row
		done++
		if appended++; appended%ledgerSyncEach == 0 {
			if err := l.f.Sync(); err != nil {
				return nil, err
			}
		}
		if progress != nil {
			progress(done, len(tasks))
		}
	}
	if done < len(tasks) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sweep: survey stopped with %d/%d classes in the ledger", done, len(tasks))
	}
	return rows, nil
}
