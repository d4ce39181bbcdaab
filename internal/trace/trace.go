// Package trace defines a line-oriented text format for executions, used
// by the command-line tools:
//
//	# comment
//	init x 0
//	final x 2
//	P0: W x 1
//	P0: R x 1
//	P1: RW x 1 2
//	P1: ACQ
//	P1: REL
//	P0: FENCE
//	order x P0[0] P1[0]
//
// Addresses are identifiers; the parser assigns them dense memory.Addr
// numbers in order of first appearance. An optional "order" line per
// address records the memory system's write order (the §5.2
// augmentation), listing references Pproc[index] into the parsed
// histories.
//
// Read parses an input longer than one block (blockSize bytes) on every
// core: the blocks are parsed concurrently and merged in file order, so
// the result is the one a line-by-line parse gives.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"memverify/internal/memory"
)

// Trace is a parsed execution plus the naming and augmentation metadata
// of the text format.
type Trace struct {
	Exec *memory.Execution
	// Names maps each address back to its identifier in the file.
	Names map[memory.Addr]string
	// WriteOrders holds the optional per-address write orders.
	WriteOrders map[memory.Addr][]memory.Ref
	// Arrival lists every operation in file order. When a trace is
	// produced by a system logging operations as they complete, file
	// order is arrival order, which the online monitor consumes.
	Arrival []memory.Ref
}

// Name returns the identifier of address a ("a<N>" if the trace was
// built programmatically without names).
func (t *Trace) Name(a memory.Addr) string {
	if n, ok := t.Names[a]; ok {
		return n
	}
	return fmt.Sprintf("a%d", a)
}

// New wraps an execution in a Trace with default address names.
func New(exec *memory.Execution) *Trace {
	return &Trace{Exec: exec, Names: map[memory.Addr]string{}}
}

// maxProcs caps the processor numbers a trace may name. Histories are
// allocated densely up to the highest processor seen, so an unchecked
// "P999999999:" line would make the parser allocate gigabytes for a
// few bytes of input.
const maxProcs = 1 << 16

// Read cuts its input into blocks of whole lines once blockSize bytes
// are buffered, so a block is longer only when its last line is. The
// first block's buffer starts at minChunk bytes and doubles, so a small
// input costs a small buffer. Write flushes a long order line every
// maxChunk bytes.
//
// blockSize is small enough that the buffers of every block in flight,
// and the growth of the first one, stay under 16 bytes an operation on
// a 10⁵-operation trace of about a megabyte.
const (
	minChunk  = 2 << 10
	blockSize = 256 << 10
	maxChunk  = 64 << 10
)

// Read parses the text format. Malformed input of any shape — garbage
// bytes, truncated lines, out-of-range numbers — is reported as an
// error carrying the offending line number; Read never panics. The
// execution of a returned trace passes memory.Execution.Validate (the
// parser builds only operation kinds Validate accepts, so Read need not
// run it), and its write orders reference only operations it has.
//
// Read tokenizes the bytes of each line in place, allocating nothing
// per line: a line of ASCII splits at ASCII spaces, and a line holding
// any other byte first has its Unicode spaces rewritten to ' ', so the
// accepted language is that of strings.Fields over strings.TrimSpace.
//
// Read takes its input a block at a time (see blockSize). An input that
// ends within its first block is parsed on the caller's goroutine. A
// longer one is parsed by GOMAXPROCS goroutines while Read reads ahead,
// each block into a log of its own; a block's buffer is reused once it
// is parsed, so only a few blocks of input are ever held. The blocks
// then merge in file order: addresses are numbered by first appearance
// in the file, the last init or final line of an address wins, and the
// first error in the file is the one reported, with the line number a
// line-by-line parse gives it. Last, every block copies its operations
// into the histories and Arrival, the blocks in parallel. No goroutine
// outlives Read.
func Read(r io.Reader) (*Trace, error) {
	return read(r, blockSize, runtime.GOMAXPROCS(0))
}

// read is Read with the block size and the number of parsing goroutines
// as parameters, so that tests can cut small inputs into many blocks.
func read(r io.Reader, size, workers int) (*Trace, error) {
	s := &splitter{r: r, size: size, buf: make([]byte, min(minChunk, size))}
	var blocks []*block
	if text := s.next(); text != nil {
		blocks = append(blocks, &block{text: text})
	}
	if s.end {
		// The input ended within its first block.
		for _, b := range blocks {
			b.parse()
		}
	} else {
		blocks = s.parseAll(blocks[0], workers)
	}
	return merge(blocks, s.err, workers)
}

// splitter cuts an input into blocks of whole lines.
type splitter struct {
	r    io.Reader
	size int // a block is cut once this many bytes are buffered
	// buf[off:n] has been read and belongs to no block yet.
	buf    []byte
	off, n int
	empty  int   // reads in a row that returned nothing
	end    bool  // the input has ended
	err    error // the read error that ended it, nil at EOF

	// Buffers of parsed blocks come back on free; take allocates spare
	// more before it waits for one.
	free  chan []byte
	spare int
}

// next returns the next block: the buffered input up to its last '\n'
// once size bytes are buffered, or at the end of the input what is left
// of it (after a read error, only its whole lines). It returns nil once
// nothing is left.
func (s *splitter) next() []byte {
	if s.off > 0 {
		// The previous block's buffer is being parsed: move the partial
		// line after it to another.
		buf := s.take(s.n - s.off)
		s.n = copy(buf, s.buf[s.off:s.n])
		s.buf, s.off = buf, 0
	}
	for !s.end {
		if s.n == len(s.buf) {
			if s.n >= s.size {
				if i := bytes.LastIndexByte(s.buf, '\n'); i >= 0 {
					s.off = i + 1
					return s.buf[:s.off]
				}
			}
			// Below the block size the buffer doubles as the input
			// grows; beyond it, only when one line fills it, so lines
			// have no length cap.
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf)
			s.buf = grown
		}
		k, err := s.r.Read(s.buf[s.n:])
		s.n += k
		switch {
		case err == io.EOF:
			s.end = true
		case err != nil:
			s.end, s.err = true, err
		case k > 0:
			s.empty = 0
		default:
			// Give up on a reader that keeps returning nothing, as
			// bufio.Scanner does.
			if s.empty++; s.empty == 100 {
				s.end, s.err = true, io.ErrNoProgress
			}
		}
	}
	text := s.buf[:s.n]
	if s.err != nil {
		text = text[:bytes.LastIndexByte(text, '\n')+1]
	}
	s.buf, s.n = nil, 0
	if len(text) == 0 {
		return nil
	}
	return text
}

// take returns a buffer longer than n: a parsed block's buffer of the
// block size, or a new one.
func (s *splitter) take(n int) []byte {
	var buf []byte
	if s.spare > 0 {
		s.spare--
	} else {
		buf = <-s.free
	}
	if len(buf) != s.size || n >= len(buf) {
		buf = make([]byte, max(s.size, 2*n))
	}
	return buf
}

// parseAll parses first and every block after it on workers goroutines
// while it reads on, and returns the blocks in file order once all are
// parsed. It reads no further once a block fails to parse.
func (s *splitter) parseAll(first *block, workers int) []*block {
	// One buffer per worker and the one being read into: a worker takes
	// a block only once it has handed the last one's buffer back.
	free := make(chan []byte, workers+1)
	s.free, s.spare = free, workers
	var failed atomic.Bool
	jobs, wait := work(workers, func(b *block) {
		b.parse()
		if b.err != nil {
			failed.Store(true)
		}
		free <- b.text[:cap(b.text)]
		b.text = nil
	})
	blocks := []*block{first}
	jobs <- first
	for !failed.Load() {
		text := s.next()
		if text == nil {
			break
		}
		b := &block{text: text}
		blocks = append(blocks, b)
		jobs <- b
	}
	wait()
	return blocks
}

// work starts n goroutines that call fn on each block sent on jobs;
// wait closes jobs and returns once every goroutine is done.
func work(n int, fn func(*block)) (jobs chan<- *block, wait func()) {
	ch := make(chan *block)
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for b := range ch {
				fn(b)
			}
		}()
	}
	return ch, func() {
		close(ch)
		wg.Wait()
	}
}

// block is one block of the input and what parsing it produced. Its
// addresses are numbered by first appearance in the block; merge maps
// them to the trace's.
type block struct {
	text  []byte
	lines int   // lines parsed, the failing one included
	err   error // the parse error of line lines, without its number

	addrOf map[string]memory.Addr
	names  []string // names[a] is the identifier of address a
	// last is the address the previous name resolved to (-1 before the
	// first): runs of operations on one address skip the map lookup.
	last memory.Addr

	// log holds the operations in file order and runs the processor of
	// each, run-length encoded; stores holds the values the
	// read-modify-writes among them wrote. counts[p] is the number of
	// operations of processor p, until merge makes it the number in
	// earlier blocks.
	log    []entry
	stores []memory.Value
	runs   []run
	counts []int

	// values holds the block's init and final values, the last line's
	// for each address.
	values memory.Execution
	// orders records the order lines in file order, and refs their
	// references, each line's after the last's.
	orders []orderLine
	refs   []memory.Ref
	// respaced is scratch for a line with bytes beyond ASCII.
	respaced []byte

	// Set by merge: the lines and the operations of earlier blocks, and
	// the trace's number of each address (nil when they are the same).
	line, at int
	remap    []memory.Addr
}

// entry is an operation as a block logs it: a memory.Op without Store,
// which only a read-modify-write has, so a logged operation takes 16
// bytes.
type entry struct {
	data memory.Value
	addr memory.Addr
	kind memory.Kind
}

// minOpLine is the length of the shortest operation line, "P0: ACQ\n".
const minOpLine = 8

// run is a maximal stretch of operation lines of processor proc,
// starting at log[start].
type run struct{ proc, start int }

// orderLine records that the order line numbered line lists refs[from:to]
// for addr.
type orderLine struct {
	line     int
	addr     memory.Addr
	from, to int
}

// The shortest order line is "order x P0[0]\n", and a reference in it
// takes at least 6 bytes with the space before it.
const (
	minOrderLine = 14
	minRef       = 6
)

// parse parses the block's lines up to the first that fails.
func (b *block) parse() {
	text := b.text
	// Room for an operation on every line but no more than one per
	// minOpLine bytes, so malformed input costs no more than valid.
	b.log = make([]entry, 0, min(bytes.Count(text, []byte{'\n'})+1, (len(text)+1)/minOpLine))
	b.addrOf = make(map[string]memory.Addr)
	b.last = -1
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		b.lines++
		if b.err = b.parseLine(line, text); b.err != nil {
			return
		}
	}
}

// parseLine parses one line, followed in the block by rest. Its error
// does not name the line.
func (b *block) parseLine(raw, rest []byte) error {
	f := fields{line: raw}
	if !isASCII(raw) {
		f.line = b.respace(raw)
	}
	head := f.next()
	if head == nil || head[0] == '#' {
		return nil
	}
	switch {
	case string(head) == "init" || string(head) == "final":
		name, val := f.next(), f.next()
		if val == nil || f.next() != nil {
			return fmt.Errorf("want %q <addr> <value>", head)
		}
		v, ok := parseInt(val)
		if !ok {
			return fmt.Errorf("bad value %q", val)
		}
		if a := b.intern(name); string(head) == "init" {
			b.values.SetInitial(a, memory.Value(v))
		} else {
			b.values.SetFinal(a, memory.Value(v))
		}
	case string(head) == "order":
		name := f.next()
		if name == nil {
			return errors.New("want order <addr> <refs...>")
		}
		a := b.intern(name)
		if b.orders == nil {
			// The block's first order line sizes its order tables for
			// every order line and reference the rest of the block can
			// hold: each has its own word, a reference its '['. A
			// block of order lines allocates them once, and one long
			// line exactly.
			b.orders = make([]orderLine, 0, 1+min(bytes.Count(rest, []byte("order")), (len(rest)+1)/minOrderLine))
			b.refs = make([]memory.Ref, 0, f.count()+min(bytes.Count(rest, []byte{'['}), len(rest)/minRef))
		}
		from := len(b.refs)
		for tok := f.next(); tok != nil; tok = f.next() {
			ref, ok := parseRef(tok)
			if !ok {
				return fmt.Errorf("bad reference %q", tok)
			}
			b.refs = append(b.refs, ref)
		}
		if len(b.refs) > from {
			b.orders = append(b.orders, orderLine{line: b.lines, addr: a, from: from, to: len(b.refs)})
		}
	case head[0] == 'P' && head[len(head)-1] == ':':
		proc, ok := atoi(head[1 : len(head)-1])
		if !ok || proc < 0 {
			return fmt.Errorf("bad processor %q", head)
		}
		if proc >= maxProcs {
			return fmt.Errorf("processor %q exceeds the %d-processor limit", head, maxProcs)
		}
		op, err := b.parseOp(&f)
		if err != nil {
			return err
		}
		b.push(proc, op)
	default:
		return fmt.Errorf("unrecognized line %q", bytes.TrimSpace(raw))
	}
	return nil
}

// parseOp parses the operation after a "Pn:" field.
func (b *block) parseOp(f *fields) (memory.Op, error) {
	kind := f.next()
	if kind == nil {
		return memory.Op{}, errors.New("missing operation")
	}
	switch string(kind) {
	case "R", "W":
		name, val := f.next(), f.next()
		if val == nil || f.next() != nil {
			return memory.Op{}, fmt.Errorf("want %s <addr> <value>", kind)
		}
		v, ok := parseInt(val)
		if !ok {
			return memory.Op{}, fmt.Errorf("bad value %q", val)
		}
		a := b.intern(name)
		if kind[0] == 'R' {
			return memory.R(a, memory.Value(v)), nil
		}
		return memory.W(a, memory.Value(v)), nil
	case "RW":
		name, rtok, wtok := f.next(), f.next(), f.next()
		if wtok == nil || f.next() != nil {
			return memory.Op{}, errors.New("want RW <addr> <read> <written>")
		}
		rv, ok := parseInt(rtok)
		if !ok {
			return memory.Op{}, fmt.Errorf("bad value %q", rtok)
		}
		wv, ok := parseInt(wtok)
		if !ok {
			return memory.Op{}, fmt.Errorf("bad value %q", wtok)
		}
		return memory.RW(b.intern(name), memory.Value(rv), memory.Value(wv)), nil
	case "ACQ":
		return memory.Acq(), nil
	case "REL":
		return memory.Rel(), nil
	case "FENCE":
		return memory.Bar(), nil
	default:
		return memory.Op{}, fmt.Errorf("unknown operation %q", kind)
	}
}

// intern returns the block's address named name, numbering new names in
// order of first appearance. The returned name strings are copies, so
// the trace does not keep the input buffer alive.
func (b *block) intern(name []byte) memory.Addr {
	if b.last >= 0 && string(name) == b.names[b.last] {
		return b.last
	}
	a, ok := b.addrOf[string(name)]
	if !ok {
		s := string(name)
		a = memory.Addr(len(b.names))
		b.addrOf[s] = a
		b.names = append(b.names, s)
	}
	b.last = a
	return a
}

// push logs op as the next operation of processor proc.
func (b *block) push(proc int, op memory.Op) {
	if proc >= len(b.counts) {
		b.counts = append(b.counts, make([]int, proc+1-len(b.counts))...)
	}
	if len(b.runs) == 0 || proc != b.runs[len(b.runs)-1].proc {
		b.runs = append(b.runs, run{proc: proc, start: len(b.log)})
	}
	b.counts[proc]++
	b.log = append(b.log, entry{data: op.Data, addr: op.Addr, kind: op.Kind})
	if op.Kind == memory.ReadModifyWrite {
		b.stores = append(b.stores, op.Store)
	}
}

// addr returns the trace's number of the block's address a.
func (b *block) addr(a memory.Addr) memory.Addr {
	if b.remap == nil {
		return a
	}
	return b.remap[a]
}

// merge joins the parsed blocks, in file order, into the trace, or
// returns the first error in the input: a block's parse error, else the
// read error that ended it. The first block numbers its addresses as the
// trace does; the names each later block adds are numbered on from
// there.
func merge(blocks []*block, readErr error, workers int) (*Trace, error) {
	t := &Trace{Exec: &memory.Execution{}, WriteOrders: make(map[memory.Addr][]memory.Ref)}
	var names []string
	var addrOf map[string]memory.Addr
	var counts []int // operations of each processor in the blocks so far
	line, ops := 0, 0
	for i, b := range blocks {
		if b.err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line+b.lines, b.err)
		}
		b.line, b.at = line, ops
		line += b.lines
		ops += len(b.log)
		if i == 0 {
			names, addrOf = b.names, b.addrOf
			t.Exec.Initial, t.Exec.Final = b.values.Initial, b.values.Final
		} else {
			names = b.number(names, addrOf)
			for a, v := range b.values.Initial {
				t.Exec.SetInitial(b.addr(a), v)
			}
			for a, v := range b.values.Final {
				t.Exec.SetFinal(b.addr(a), v)
			}
		}
		// Consecutive order lines of one address join its write order
		// in one append. The first to join is not copied: capped at its
		// end, it cannot grow into the references after it.
		for i := 0; i < len(b.orders); {
			o := b.orders[i]
			to := o.to
			for i++; i < len(b.orders) && b.orders[i].addr == o.addr; i++ {
				to = b.orders[i].to
			}
			a, refs := b.addr(o.addr), b.refs[o.from:to:to]
			if prev := t.WriteOrders[a]; prev != nil {
				refs = append(prev, refs...)
			}
			t.WriteOrders[a] = refs
		}
		if len(b.counts) > len(counts) {
			counts = append(counts, make([]int, len(b.counts)-len(counts))...)
		}
		for p, c := range b.counts {
			b.counts[p], counts[p] = counts[p], counts[p]+c
		}
	}
	if readErr != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, readErr)
	}
	t.Names = make(map[memory.Addr]string, len(names))
	for a, name := range names {
		t.Names[memory.Addr(a)] = name
	}
	if ops > 0 {
		carve(t, blocks, counts, ops, workers)
	}
	if err := checkOrders(t, blocks); err != nil {
		return nil, err
	}
	return t, nil
}

// number maps the block's addresses to the trace's, given the names of
// the earlier blocks, and returns the names with the block's new ones
// appended.
func (b *block) number(names []string, addrOf map[string]memory.Addr) []string {
	remap := make([]memory.Addr, len(b.names))
	same := true
	for a, name := range b.names {
		g, ok := addrOf[name]
		if !ok {
			g = memory.Addr(len(names))
			addrOf[name] = g
			names = append(names, name)
		}
		remap[a] = g
		same = same && g == memory.Addr(a)
	}
	if !same {
		b.remap = remap
	}
	return names
}

// carve builds the histories and Arrival at their exact sizes: one
// backing array cut at the per-processor counts into the histories, into
// which every block copies its operations, and fills its stretch of
// Arrival, the blocks in parallel. A processor with no operations keeps
// a nil history.
func carve(t *Trace, blocks []*block, counts []int, ops, workers int) {
	backing := make([]memory.Op, ops)
	start := make([]int, len(counts))
	for p := 1; p < len(start); p++ {
		start[p] = start[p-1] + counts[p-1]
	}
	arrival := make([]memory.Ref, ops)
	fill := func(b *block) { b.carve(backing, start, arrival) }
	if workers = min(workers, len(blocks)); workers > 1 {
		jobs, wait := work(workers, fill)
		for _, b := range blocks {
			jobs <- b
		}
		wait()
	} else {
		for _, b := range blocks {
			fill(b)
		}
	}
	hist := make([]memory.History, len(counts))
	for p, c := range counts {
		if c > 0 {
			hist[p] = backing[start[p] : start[p]+c : start[p]+c]
		}
	}
	t.Exec.Histories = hist
	t.Arrival = arrival
}

// carve copies the block's operations, with the trace's addresses, into
// backing, where processor p's history starts at start[p], and their
// references into arrival from b.at on. b.counts[p] is the number of
// operations of p in earlier blocks.
func (b *block) carve(backing []memory.Op, start []int, arrival []memory.Ref) {
	next, stores := b.counts, b.stores
	for i, r := range b.runs {
		end := len(b.log)
		if i+1 < len(b.runs) {
			end = b.runs[i+1].start
		}
		index := next[r.proc]
		dst := backing[start[r.proc]+index:]
		refs := arrival[b.at+r.start : b.at+end]
		for k, e := range b.log[r.start:end] {
			o := memory.Op{Kind: e.kind, Addr: e.addr, Data: e.data}
			if o.Kind == memory.ReadModifyWrite {
				o.Store, stores = stores[0], stores[1:]
			}
			if b.remap != nil && o.IsMemory() {
				o.Addr = b.remap[o.Addr]
			}
			dst[k] = o
			refs[k] = memory.Ref{Proc: r.proc, Index: index + k}
		}
		next[r.proc] = index + end - r.start
	}
}

// checkOrders reports the first order reference, in file order, that
// names no operation.
func checkOrders(t *Trace, blocks []*block) error {
	hist := t.Exec.Histories
	for _, b := range blocks {
		for _, o := range b.orders {
			for _, r := range b.refs[o.from:o.to] {
				if r.Proc >= len(hist) || r.Index >= len(hist[r.Proc]) {
					return fmt.Errorf("trace: line %d: order for %s references %s, which does not exist", b.line+o.line, t.Names[b.addr(o.addr)], r)
				}
			}
		}
	}
	return nil
}

// fields walks the fields of a line whose spaces are all ASCII.
type fields struct {
	line []byte
	pos  int
}

// next returns the next run of non-space bytes, or nil at the end.
func (f *fields) next() []byte {
	s, i := f.line, f.pos
	for i < len(s) && asciiSpace[s[i]] {
		i++
	}
	j := i
	for j < len(s) && !asciiSpace[s[j]] {
		j++
	}
	f.pos = j
	if i == j {
		return nil
	}
	return s[i:j]
}

// count returns the number of fields left, without consuming them.
func (f *fields) count() int {
	n := 0
	for i := f.pos; i < len(f.line); i++ {
		if !asciiSpace[f.line[i]] && (i == 0 || asciiSpace[f.line[i-1]]) {
			n++
		}
	}
	return n
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isASCII reports whether b holds only ASCII bytes.
func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// respace copies line with every Unicode space (decoded as
// strings.Fields decodes it) replaced by ' ' and every other rune
// copied byte for byte, so fields splits the copy as strings.Fields
// splits the line.
func (b *block) respace(line []byte) []byte {
	out := b.respaced[:0]
	for len(line) > 0 {
		r, w := utf8.DecodeRune(line)
		if unicode.IsSpace(r) {
			out = append(out, ' ')
		} else {
			out = append(out, line[:w]...)
		}
		line = line[w:]
	}
	b.respaced = out
	return out
}

// parseInt parses s as strconv.ParseInt(s, 10, 64) does: an optional
// sign, then decimal digits; ok is false on a syntax error or overflow.
func parseInt(s []byte) (v int64, ok bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range s {
		d := c - '0'
		if d > 9 || n > 1<<63/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
		if n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// atoi parses s as strconv.Atoi does.
func atoi(s []byte) (int, bool) {
	v, ok := parseInt(s)
	return int(v), ok && int64(int(v)) == v
}

// parseRef parses "P3[7]".
func parseRef(tok []byte) (memory.Ref, bool) {
	if len(tok) < 2 || tok[0] != 'P' || tok[len(tok)-1] != ']' {
		return memory.Ref{}, false
	}
	body := tok[1 : len(tok)-1]
	k := bytes.IndexByte(body, '[')
	if k < 0 {
		return memory.Ref{}, false
	}
	proc, ok1 := atoi(body[:k])
	index, ok2 := atoi(body[k+1:])
	if !ok1 || !ok2 || proc < 0 || index < 0 {
		return memory.Ref{}, false
	}
	return memory.Ref{Proc: proc, Index: index}, true
}

// Write emits the trace in the text format. Output is deterministic:
// init/final/order lines sorted by address, operations grouped by
// processor in program order.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	// Each line is built in one reused buffer. A failed write sticks in
	// bw, and Flush reports it.
	var line []byte
	writeLine := func() {
		bw.Write(line)
		line = line[:0]
	}
	appendName := func(b []byte, a memory.Addr) []byte {
		if n, ok := t.Names[a]; ok {
			return append(b, n...)
		}
		return strconv.AppendInt(append(b, 'a'), int64(a), 10)
	}
	appendInt := func(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

	var addrs []memory.Addr
	seen := map[memory.Addr]bool{}
	add := func(a memory.Addr) {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	for a := range t.Exec.Initial {
		add(a)
	}
	for a := range t.Exec.Final {
		add(a)
	}
	for a := range t.WriteOrders {
		add(a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		if v, ok := t.Exec.Initial[a]; ok {
			line = appendName(append(line, "init "...), a)
			line = append(appendInt(append(line, ' '), int64(v)), '\n')
			writeLine()
		}
	}
	for _, a := range addrs {
		if v, ok := t.Exec.Final[a]; ok {
			line = appendName(append(line, "final "...), a)
			line = append(appendInt(append(line, ' '), int64(v)), '\n')
			writeLine()
		}
	}
	emit := func(p int, o memory.Op) {
		if o.Validate() != nil {
			return
		}
		line = append(appendInt(append(line, 'P'), int64(p)), ": "...)
		line = append(line, o.Kind.String()...)
		if o.IsMemory() {
			line = appendName(append(line, ' '), o.Addr)
			line = appendInt(append(line, ' '), int64(o.Data))
			if o.Kind == memory.ReadModifyWrite {
				line = appendInt(append(line, ' '), int64(o.Store))
			}
		}
		line = append(line, '\n')
		writeLine()
	}
	// With a complete arrival order, operation lines interleave in that
	// order (so parsing recovers it); otherwise ops group by processor.
	if len(t.Arrival) == t.Exec.NumOps() && len(t.Arrival) > 0 {
		for _, r := range t.Arrival {
			emit(r.Proc, t.Exec.Op(r))
		}
	} else {
		for p, h := range t.Exec.Histories {
			for _, o := range h {
				emit(p, o)
			}
		}
	}
	for _, a := range addrs {
		refs := t.WriteOrders[a]
		if len(refs) == 0 {
			continue
		}
		line = appendName(append(line, "order "...), a)
		for _, r := range refs {
			line = appendInt(append(line, " P"...), int64(r.Proc))
			line = append(appendInt(append(line, '['), int64(r.Index)), ']')
			if len(line) >= maxChunk {
				writeLine()
			}
		}
		line = append(line, '\n')
		writeLine()
	}
	return bw.Flush()
}
