package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// readOneBlock parses input as one block on the caller's goroutine.
func readOneBlock(input string) (*Trace, error) {
	return read(strings.NewReader(input), len(input)+1, 1)
}

// sameRead reports how a read's outcome differs from the one-block
// parse's: the error strings, or the first field of the traces that
// reflect.DeepEqual tells apart. It returns "" when they are the same.
func sameRead(got *Trace, gotErr error, want *Trace, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, one-block parse error %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %q, one-block parse error %q", gotErr, wantErr)
	case gotErr != nil:
		return ""
	}
	if field := traceDiff(got, want); field != "" {
		return field + " differs from the one-block parse"
	}
	return ""
}

// TestReadBlocks: cut into blocks of every size from one byte to the
// whole input, and parsed by one, two or four goroutines, each input
// reads as the one-block parse reads it — the same trace, or the same
// error string.
func TestReadBlocks(t *testing.T) {
	longOrder := "P0: W x 1\nP0: W x 2\norder x" + strings.Repeat(" P0[0] P0[1]", 40) + "\n"
	cases := []struct {
		name    string
		input   string
		wantErr string // a substring of the error, "" for success
	}{
		{"name first seen in a later init", "P0: W x 1\nP1: R x 1\ninit y 5\nP1: R y 5\n", ""},
		{"init and final overridden later", "init x 0\nfinal x 1\nP0: W x 1\nP1: R x 1\ninit x 2\nfinal x 3\ninit y 4\ninit y 0\n", ""},
		{"order lines of one address in several blocks",
			"P0: W x 1\nP1: W x 2\norder x P0[0]\nP0: W y 1\norder y P0[1]\nP1: R x 2\norder x P1[0]\norder y\norder x P1[1]\n", ""},
		{"processor first named later", "P0: W x 1\nP0: R x 1\nP3: R x 1\nP1: ACQ\nP3: RW x 1 2\nP0: FENCE\n", ""},
		{"names met in another order later", "P0: W a 1\nP0: W b 1\nP1: W c 1\nP1: R c 1\nP2: R b 1\nP2: W d 1\nP2: R a 1\nP0: R d 1\n", ""},
		{"parse errors in two blocks", "P0: W x 1\nP1: R x 1\nbad line\nP0: W x 2\nP1: R x\n", "trace: line 3: unrecognized line"},
		{"bad order ref after good ones", "P0: W x 1\norder x P0[0]\nP1: W y 1\norder y P1[0] P1[4]\norder x P2[0]\n", "trace: line 4: order for y references P1[4]"},
		{"line longer than a block", longOrder, ""},
		{"CRLF and non-ASCII lines", "init x 0\r\nP0: W x 1\r\nP1: R x 1\r\n# café\nP0: W\u0085x 2\r\nP1: R x 2\nP0: W x\xc2\x85 3\r\n", ""},
		{"no final newline", "P0: W x 1\nP1: R x 1", ""},
		{"blank and comment lines only", "\n# c\n\n   \n", ""},
		{"empty", "", ""},
	}
	for _, c := range cases {
		want, wantErr := readOneBlock(c.input)
		if c.wantErr == "" && wantErr != nil {
			t.Fatalf("%s: one-block parse: %v", c.name, wantErr)
		}
		if c.wantErr != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), c.wantErr)) {
			t.Fatalf("%s: one-block parse error %v, want %q", c.name, wantErr, c.wantErr)
		}
		for size := 1; size <= len(c.input)+1; size++ {
			for _, workers := range []int{1, 2, 4} {
				got, err := read(strings.NewReader(c.input), size, workers)
				if d := sameRead(got, err, want, wantErr); d != "" {
					t.Fatalf("%s: blocks of %d bytes, %d workers: %s", c.name, size, workers, d)
				}
			}
		}
	}
}

// TestReadBlocksReadError: a parse error before a read error wins, and
// a read error names the line after the last whole line read, however
// the input is cut into blocks.
func TestReadBlocksReadError(t *testing.T) {
	for _, c := range []struct {
		input, want string
	}{
		{"P0: W x 1\ngarbage\nP0: W x 2\nP0: R", "trace: line 2: unrecognized line \"garbage\""},
		{"P0: W x 1\nP1: R x 1\nP0: W x 2\nP0: R", "trace: line 4: " + iotest.ErrTimeout.Error()},
	} {
		for size := 1; size <= len(c.input)+1; size++ {
			for _, workers := range []int{1, 3} {
				r := io.MultiReader(strings.NewReader(c.input), iotest.ErrReader(iotest.ErrTimeout))
				_, err := read(r, size, workers)
				if err == nil || err.Error() != c.want {
					t.Fatalf("%q, blocks of %d bytes, %d workers: error %v, want %q", c.input, size, workers, err, c.want)
				}
				if strings.Contains(c.want, iotest.ErrTimeout.Error()) && !errors.Is(err, iotest.ErrTimeout) {
					t.Fatalf("%q: error %v does not wrap the read error", c.input, err)
				}
			}
		}
	}
}

// TestReadLeavesNoGoroutine: every goroutine Read starts has returned by
// the time Read does — after a success, a parse error in the first or
// the last block, and a read error in mid-stream.
func TestReadLeavesNoGoroutine(t *testing.T) {
	text := string(relayText(t, 139))
	for _, c := range []struct {
		name    string
		r       func() io.Reader
		wantErr bool
	}{
		{"success", func() io.Reader { return strings.NewReader(text) }, false},
		{"parse error in the first block", func() io.Reader { return strings.NewReader("garbage\n" + text) }, true},
		{"parse error in the last block", func() io.Reader { return strings.NewReader(text + "garbage\n") }, true},
		{"read error mid-stream", func() io.Reader {
			return io.MultiReader(strings.NewReader(text[:len(text)/2]), iotest.ErrReader(iotest.ErrTimeout))
		}, true},
	} {
		before := runtime.NumGoroutine()
		for _, workers := range []int{1, 4} {
			if _, err := read(c.r(), 4<<10, workers); (err != nil) != c.wantErr {
				t.Fatalf("%s, %d workers: error %v", c.name, workers, err)
			}
		}
		// A worker counts as running until it has returned from its
		// deferred Done; give it that long.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after Read, %d before", c.name, n, before)
		}
	}
}

// TestReadBytesPerOp: on the 10⁵-operation relay, which spans several
// blocks, Read allocates at most 74 bytes an operation, the figure of
// the single-pass reader it replaced on the 10⁶-operation relay from a
// bytes.Reader — from a bytes.Reader and from a reader without Len,
// which that reader could not size its operation log by.
func TestReadBytesPerOp(t *testing.T) {
	text := relayText(t, 1389)
	if len(text) <= blockSize {
		t.Fatalf("relay is %d bytes, want more than one block", len(text))
	}
	for name, r := range map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(text) },
		"no length":    func() io.Reader { return struct{ io.Reader }{bytes.NewReader(text)} },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Read(r())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Exec.NumOps())
		if perOp > 74 {
			t.Errorf("%s: Read allocated %.1f bytes an operation, want at most 74", name, perOp)
		}
		t.Logf("%s: %.1f bytes an operation", name, perOp)
	}
}
