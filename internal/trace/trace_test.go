package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"memverify/internal/memory"
	"memverify/internal/workload"
)

const sample = `# a small trace
init x 0
init y 0
final x 2
P0: W x 1
P0: R x 1
P1: RW x 1 2
P1: ACQ
P1: REL
P0: FENCE
order x P0[0] P1[0]
`

func TestReadSample(t *testing.T) {
	tr, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Exec.NumProcesses(); got != 2 {
		t.Fatalf("processes = %d, want 2", got)
	}
	if got := tr.Exec.Histories[0]; !reflect.DeepEqual(got, memory.History{
		memory.W(0, 1), memory.R(0, 1), memory.Bar(),
	}) {
		t.Errorf("P0 = %v", got)
	}
	if got := tr.Exec.Histories[1]; !reflect.DeepEqual(got, memory.History{
		memory.RW(0, 1, 2), memory.Acq(), memory.Rel(),
	}) {
		t.Errorf("P1 = %v", got)
	}
	if tr.Exec.Initial[0] != 0 || tr.Exec.Final[0] != 2 {
		t.Error("init/final wrong")
	}
	wantOrder := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}}
	if !reflect.DeepEqual(tr.WriteOrders[0], wantOrder) {
		t.Errorf("order = %v, want %v", tr.WriteOrders[0], wantOrder)
	}
	if tr.Name(0) != "x" || tr.Name(1) != "y" {
		t.Errorf("names = %q, %q", tr.Name(0), tr.Name(1))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"garbage line",
		"P0: Q x 1",
		"Px: R x 1",
		"P0: R x",
		"P0: R x abc",
		"P0: RW x 1",
		"init x",
		"init x abc",
		"final x",
		"order",
		"order x nope",
		"order x P0[9]",
		"P0:",
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): error expected", i, in)
		}
	}
}

// TestReadErrorsNameTheLine: parse errors must carry the 1-based line
// number of the offending line, so a user can fix a long trace file
// without bisecting it.
func TestReadErrorsNameTheLine(t *testing.T) {
	cases := []struct {
		input string
		want  string
	}{
		{"P0: W x 1\ngarbage line\n", "line 2"},
		{"# comment\n\nP0: R x\n", "line 3"},
		{"init x 0\nP0: W x 1\ninit y oops\n", "line 3"},
		{"P0: W x 1\norder x P0[0] nope\n", "line 2"},
		{"P99999999: W x 1\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%q: error expected", c.input)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not name %q", c.input, err, c.want)
		}
	}
}

// TestReadCapsProcessorNumbers: a trace naming an absurd processor
// number is rejected up front instead of allocating a history slice
// with a billion entries.
func TestReadCapsProcessorNumbers(t *testing.T) {
	if _, err := Read(strings.NewReader("P999999999: W x 1\n")); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Errorf("huge processor number: err = %v, want limit rejection", err)
	}
	// The last in-range processor still parses.
	in := fmt.Sprintf("P%d: W x 1\n", maxProcs-1)
	if _, err := Read(strings.NewReader(in)); err != nil {
		t.Errorf("P%d rejected: %v", maxProcs-1, err)
	}
}

func TestReadSkipsGapsInProcessors(t *testing.T) {
	in := "P2: W x 1\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Exec.NumProcesses(); got != 3 {
		t.Fatalf("processes = %d, want 3 (P0,P1 empty)", got)
	}
	if len(tr.Exec.Histories[0]) != 0 || len(tr.Exec.Histories[1]) != 0 {
		t.Error("empty processors not empty")
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: 6, Addresses: 3, Values: 3, RMWFraction: 0.1, WriteFraction: 0.4,
		})
		tr := &Trace{Exec: exec, Names: map[memory.Addr]string{}, WriteOrders: orders}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		// Address numbering may be permuted by first-appearance order;
		// compare via names.
		if back.Exec.NumOps() != exec.NumOps() {
			t.Fatalf("instance %d: ops %d != %d", i, back.Exec.NumOps(), exec.NumOps())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, back); err != nil {
			t.Fatal(err)
		}
		// Idempotence: writing a parsed trace reproduces it exactly.
		var buf3 bytes.Buffer
		back2, err := Read(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(&buf3, back2); err != nil {
			t.Fatal(err)
		}
		if buf2.String() != buf3.String() {
			t.Fatalf("instance %d: write/read/write not idempotent\n%s\nvs\n%s", i, buf2.String(), buf3.String())
		}
	}
}

func TestWriteDefaultNames(t *testing.T) {
	exec := memory.NewExecution(memory.History{memory.W(5, 1)})
	tr := New(exec)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a5") {
		t.Errorf("default name missing: %s", buf.String())
	}
}

// TestReadLongLine: a line has no length cap. An order line for 1.5M
// writes, well over the 16 MB token limit of the bufio.Scanner the
// reader once used, round-trips through Write and Read.
func TestReadLongLine(t *testing.T) {
	const n = 1_500_000
	h := make(memory.History, n)
	order := make([]memory.Ref, n)
	for i := range h {
		h[i] = memory.W(0, memory.Value(i))
		order[i] = memory.Ref{Proc: 0, Index: i}
	}
	tr := &Trace{Exec: memory.NewExecution(h), Names: map[memory.Addr]string{0: "x"},
		WriteOrders: map[memory.Addr][]memory.Ref{0: order}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	if i := bytes.LastIndexByte(text[:len(text)-1], '\n'); len(text)-i < 16<<20 {
		t.Fatalf("order line is %d bytes, want over 16 MB", len(text)-i)
	}
	back, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Exec.Histories, tr.Exec.Histories) || !reflect.DeepEqual(back.WriteOrders, tr.WriteOrders) {
		t.Fatal("long-line trace did not round-trip")
	}
}

// TestReadFirstBadOrderRef: with several bad order refs, the error names
// the first in file order and the line of its order line, every time.
func TestReadFirstBadOrderRef(t *testing.T) {
	in := "P0: W x 1\norder y P0[0] P3[1]\norder x P0[0] P0[5]\norder z P9[9]\norder y P7[0]\n"
	want := "trace: line 2: order for y references P3[1], which does not exist"
	for i := 0; i < 50; i++ {
		if _, err := Read(strings.NewReader(in)); err == nil || err.Error() != want {
			t.Fatalf("read %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestReadManyOrderLines: order lines for one address join in amortized
// time. 10⁵ one-ref lines read back as one write order, allocating at
// most 32 bytes per input byte (about 21 today: the operation array,
// and the refs and per-line records grown by append) and a bounded
// number of times. A reader that copied the refs gathered so far on
// every line would allocate about 80 GB.
func TestReadManyOrderLines(t *testing.T) {
	const n = 100_000
	text := "P0: W x 1\n" + strings.Repeat("order x P0[0]\n", n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Read(strings.NewReader(text))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.WriteOrders[0]); got != n {
		t.Fatalf("write order has %d refs, want %d", got, n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(text)) {
		t.Errorf("Read of %d order lines allocated %d bytes, want at most 32 per input byte (%d)", n, alloc, 32*len(text))
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Read(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Read of %d order lines made %.0f allocations, want at most 200", n, allocs)
	}
}

// TestReadStreams: the reader's buffer handling, under readers that
// return one byte at a time, return data with their error, or fail.
func TestReadStreams(t *testing.T) {
	want, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one byte":    iotest.OneByteReader(strings.NewReader(sample)),
		"half":        iotest.HalfReader(strings.NewReader(sample)),
		"data err":    iotest.DataErrReader(strings.NewReader(sample)),
		"no length":   struct{ io.Reader }{strings.NewReader(strings.Repeat(sample, 200))},
		"no final LF": strings.NewReader(strings.TrimSuffix(sample, "\n")),
	} {
		got, err := Read(r)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if name == "no length" {
			continue
		}
		if field := traceDiff(got, want); field != "" {
			t.Errorf("%s: %s differs", name, field)
		}
	}

	_, err = Read(io.MultiReader(strings.NewReader("P0: W x 1\nP0: R"), iotest.ErrReader(iotest.ErrTimeout)))
	if !errors.Is(err, iotest.ErrTimeout) || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Errorf("read error: err = %v, want ErrTimeout at line 2", err)
	}
	_, err = Read(emptyReader{})
	if !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("empty reads: err = %v, want io.ErrNoProgress", err)
	}
}

// emptyReader returns no data and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// TestReadAllocs: reading allocates a bounded number of times however
// many lines the trace has — nothing per line.
func TestReadAllocs(t *testing.T) {
	text := relayText(t, 139)
	lines := bytes.Count(text, []byte("\n"))
	if lines < 10_000 {
		t.Fatalf("trace has %d lines, want at least 10,000", lines)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Read of a %d-line trace made %.0f allocations, want at most 40", lines, allocs)
	}
	t.Logf("%d lines: %.0f allocations", lines, allocs)
}

// TestWriteMatchesReference: Write's bytes equal the fmt writer's on
// generated traces with and without names, arrival order and write
// orders, including negative values and addresses.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: 8, Addresses: 3, Values: 5, RMWFraction: 0.2, WriteFraction: 0.4,
		})
		exec.Histories[0] = append(exec.Histories[0], memory.Acq(), memory.Rel(), memory.Bar(),
			memory.W(-3, -9223372036854775808), memory.RW(7, 9223372036854775807, -1))
		exec.SetFinal(-3, -1)
		tr := &Trace{Exec: exec, Names: map[memory.Addr]string{0: "x", 2: "long_name.2"}, WriteOrders: orders}
		if i%2 == 1 {
			tr.Arrival = exec.Refs()
			rng.Shuffle(len(tr.Arrival), func(a, b int) { tr.Arrival[a], tr.Arrival[b] = tr.Arrival[b], tr.Arrival[a] })
		}
		var got, want bytes.Buffer
		if err := Write(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := referenceWrite(&want, tr); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("instance %d: Write differs from the fmt writer:\n%s\nvs\n%s", i, got.String(), want.String())
		}
	}
}

// relayText is the text of the perfbench relay's shape cut to the given
// number of rounds: four processors, one address, 72 operations a round.
func relayText(tb testing.TB, rounds int) []byte {
	var buf bytes.Buffer
	exec := workload.GenerateRelay(workload.RelayConfig{Processors: 4, Rounds: rounds, Decoys: 16})
	if err := Write(&buf, New(exec)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var benchTrace *Trace

// BenchmarkRead: a relay-shaped trace of 10⁵ operations (one address,
// the shape of the perfbench relay workloads) and a service-shaped one
// (the memverifyd request shape: a few processors, addresses and values).
func BenchmarkRead(b *testing.B) {
	var service bytes.Buffer
	exec, _ := workload.GenerateCoherent(rand.New(rand.NewSource(1)), workload.GenConfig{
		Processors: 4, OpsPerProc: 18, Addresses: 4, Values: 4,
	})
	if err := Write(&service, New(exec)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		text []byte
	}{
		{"relay-1e5", relayText(b, 1389)},
		{"service", service.Bytes()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := Read(bytes.NewReader(c.text))
				if err != nil {
					b.Fatal(err)
				}
				benchTrace = tr
			}
		})
	}
}
