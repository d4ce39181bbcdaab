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
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
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

// Read buffer sizing: a reader that reports its length gets a buffer of
// that length, up to maxChunk; any other reader starts at minChunk. The
// buffer doubles while reads fill it and it is below maxChunk, and
// beyond that only when one line fills it, so lines have no length cap.
const (
	minChunk = 512
	maxChunk = 64 << 10
)

// Read parses the text format. Malformed input of any shape — garbage
// bytes, truncated lines, out-of-range numbers — is reported as an
// error carrying the offending line number; Read never panics.
//
// Read tokenizes the bytes of each line in place, allocating nothing
// per line: a line of ASCII splits at ASCII spaces, and a line holding
// any other byte first has its Unicode spaces rewritten to ' ', so the
// accepted language is that of strings.Fields over strings.TrimSpace.
// Operations are logged in file order, then carved into histories and
// Arrival once their per-processor counts are known.
func Read(r io.Reader) (*Trace, error) {
	p := &parser{
		t: &Trace{
			Exec:        &memory.Execution{},
			Names:       make(map[memory.Addr]string),
			WriteOrders: make(map[memory.Addr][]memory.Ref),
		},
		addrOf: make(map[string]memory.Addr),
		last:   -1,
	}
	if err := p.scan(r); err != nil {
		return nil, err
	}
	p.carve()
	if err := p.t.Exec.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := p.checkOrders(); err != nil {
		return nil, err
	}
	return p.t, nil
}

// parser is the state of one Read.
type parser struct {
	t    *Trace
	line int // number of the line being parsed, from 1

	addrOf map[string]memory.Addr
	names  []string // names[a] is the identifier of address a
	// last is the address the previous name resolved to (-1 before the
	// first): runs of operations on one address skip the map lookup.
	last memory.Addr

	// ops holds the operations in file order and runs the processor
	// of each, run-length encoded; counts[p] is the number of operations
	// of processor p.
	ops    []memory.Op
	runs   []run
	counts []int
	// orders lists the order lines in file order, for checkOrders.
	orders []orderLine
	// respaced is scratch for a line with bytes beyond ASCII.
	respaced []byte
}

// minOpLine is the length of the shortest operation line, "P0: ACQ\n".
const minOpLine = 8

// run is a maximal stretch of operation lines of processor proc,
// starting at ops[start].
type run struct{ proc, start int }

// orderLine records that the order line numbered line appended
// WriteOrders[addr][from:to].
type orderLine struct {
	line     int
	addr     memory.Addr
	from, to int
}

// scan reads r to the end and hands each line, without its '\n', to
// parseLine.
func (p *parser) scan(r io.Reader) error {
	size := minChunk
	if l, ok := r.(interface{ Len() int }); ok {
		// One byte over the length lets the first read return all of a
		// small input without filling the buffer.
		size = min(l.Len()+1, maxChunk)
		// Room for as many operations as the input can hold, so the
		// array never grows: 3 bytes per input byte, where a valid
		// trace of the same length can need 5 (its operations and
		// Arrival), so malformed input costs no more than valid input.
		p.ops = make([]memory.Op, 0, (l.Len()+1)/minOpLine)
	}
	buf := make([]byte, size)
	start, end, empty := 0, 0, 0
	for {
		n, err := r.Read(buf[end:])
		end += n
		for {
			i := bytes.IndexByte(buf[start:end], '\n')
			if i < 0 {
				break
			}
			if err := p.parseLine(buf[start : start+i]); err != nil {
				return err
			}
			start += i + 1
		}
		if err == io.EOF {
			if start < end {
				return p.parseLine(buf[start:end])
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", p.line+1, err)
		}
		// Give up on a reader that keeps returning nothing, as
		// bufio.Scanner does.
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return fmt.Errorf("trace: line %d: %w", p.line+1, io.ErrNoProgress)
		}
		if end == len(buf) && (start == 0 || len(buf) < maxChunk) {
			grown := make([]byte, 2*len(buf))
			end = copy(grown, buf[start:end])
			buf = grown
		} else {
			end = copy(buf, buf[start:end])
		}
		start = 0
	}
}

// parseLine parses one line.
func (p *parser) parseLine(raw []byte) error {
	p.line++
	f := fields{line: raw}
	if !isASCII(raw) {
		f.line = p.respace(raw)
	}
	head := f.next()
	if head == nil || head[0] == '#' {
		return nil
	}
	switch {
	case string(head) == "init" || string(head) == "final":
		name, val := f.next(), f.next()
		if val == nil || f.next() != nil {
			return p.errorf("want %q <addr> <value>", head)
		}
		v, ok := parseInt(val)
		if !ok {
			return p.errorf("bad value %q", val)
		}
		a := p.intern(name)
		if string(head) == "init" {
			p.t.Exec.SetInitial(a, memory.Value(v))
		} else {
			p.t.Exec.SetFinal(a, memory.Value(v))
		}
	case string(head) == "order":
		name := f.next()
		if name == nil {
			return p.errorf("want order <addr> <refs...>")
		}
		a := p.intern(name)
		// Growing by the line's field count sizes a single order line
		// exactly, and Grow's amortized growth keeps many order lines
		// for one address linear.
		refs := slices.Grow(p.t.WriteOrders[a], f.count())
		from := len(refs)
		for tok := f.next(); tok != nil; tok = f.next() {
			ref, ok := parseRef(tok)
			if !ok {
				return p.errorf("bad reference %q", tok)
			}
			refs = append(refs, ref)
		}
		if len(refs) > from {
			p.t.WriteOrders[a] = refs
			p.orders = append(p.orders, orderLine{line: p.line, addr: a, from: from, to: len(refs)})
		}
	case head[0] == 'P' && head[len(head)-1] == ':':
		proc, ok := atoi(head[1 : len(head)-1])
		if !ok || proc < 0 {
			return p.errorf("bad processor %q", head)
		}
		if proc >= maxProcs {
			return p.errorf("processor %q exceeds the %d-processor limit", head, maxProcs)
		}
		op, err := p.parseOp(&f)
		if err != nil {
			return p.errorf("%v", err)
		}
		p.push(proc, op)
	default:
		return p.errorf("unrecognized line %q", bytes.TrimSpace(raw))
	}
	return nil
}

// parseOp parses the operation after a "Pn:" field.
func (p *parser) parseOp(f *fields) (memory.Op, error) {
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
		a := p.intern(name)
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
		return memory.RW(p.intern(name), memory.Value(rv), memory.Value(wv)), nil
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

// errorf reports an error on the line being parsed.
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// intern returns the address named name, numbering new names in order
// of first appearance. The returned name strings are copies, so the
// trace does not keep the input buffer alive.
func (p *parser) intern(name []byte) memory.Addr {
	if p.last >= 0 && string(name) == p.names[p.last] {
		return p.last
	}
	a, ok := p.addrOf[string(name)]
	if !ok {
		s := string(name)
		a = memory.Addr(len(p.names))
		p.addrOf[s] = a
		p.names = append(p.names, s)
		p.t.Names[a] = s
	}
	p.last = a
	return a
}

// push appends op as the next operation of processor proc.
func (p *parser) push(proc int, op memory.Op) {
	if proc >= len(p.counts) {
		p.counts = append(p.counts, make([]int, proc+1-len(p.counts))...)
	}
	if len(p.runs) == 0 || proc != p.runs[len(p.runs)-1].proc {
		p.runs = append(p.runs, run{proc: proc, start: len(p.ops)})
	}
	p.counts[proc]++
	if len(p.ops) == cap(p.ops) {
		// Without a length hint: doubling, where append would grow a
		// large slice by 1.25×, bounds the bytes allocated to twice the
		// final array.
		p.ops = append(make([]memory.Op, 0, max(64, 2*cap(p.ops))), p.ops...)
	}
	p.ops = append(p.ops, op)
}

// carve copies the operations, run by run, into one exact-size backing
// array cut at the per-processor counts into the execution's histories,
// and builds Arrival at its exact size. Histories stay nil without
// operation lines, and so does the history of a processor with none.
func (p *parser) carve() {
	if len(p.ops) == 0 {
		return
	}
	backing := make([]memory.Op, len(p.ops))
	start := make([]int, len(p.counts))
	for proc := 1; proc < len(start); proc++ {
		start[proc] = start[proc-1] + p.counts[proc-1]
	}
	arrival := make([]memory.Ref, len(p.ops))
	next := make([]int, len(p.counts))
	for i, r := range p.runs {
		end := len(p.ops)
		if i+1 < len(p.runs) {
			end = p.runs[i+1].start
		}
		index := next[r.proc]
		copy(backing[start[r.proc]+index:], p.ops[r.start:end])
		for k := r.start; k < end; k++ {
			arrival[k] = memory.Ref{Proc: r.proc, Index: index}
			index++
		}
		next[r.proc] = index
	}
	hist := make([]memory.History, len(p.counts))
	for proc, c := range p.counts {
		if c > 0 {
			hist[proc] = backing[start[proc] : start[proc]+c : start[proc]+c]
		}
	}
	p.t.Exec.Histories = hist
	p.t.Arrival = arrival
}

// checkOrders reports the first order ref, in file order, that names no
// operation.
func (p *parser) checkOrders() error {
	hist := p.t.Exec.Histories
	for _, o := range p.orders {
		for _, r := range p.t.WriteOrders[o.addr][o.from:o.to] {
			if r.Proc >= len(hist) || r.Index >= len(hist[r.Proc]) {
				return fmt.Errorf("trace: line %d: order for %s references %s, which does not exist", o.line, p.names[o.addr], r)
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
func (p *parser) respace(line []byte) []byte {
	out := p.respaced[:0]
	for len(line) > 0 {
		r, w := utf8.DecodeRune(line)
		if unicode.IsSpace(r) {
			out = append(out, ' ')
		} else {
			out = append(out, line[:w]...)
		}
		line = line[w:]
	}
	p.respaced = out
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
