package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"memverify/internal/memory"
)

// This file keeps the line reader and fmt writer that Read and Write
// replaced, unchanged but for their names, as the oracles FuzzRead
// checks the byte-level reader and the strconv writer against.

// referenceRead is the bufio.Scanner + strings.Fields reader. It differs
// from Read only where Read fixed it: a line over 16 MB fails with
// bufio.ErrTooLong, and of several bad order refs it reports the one a
// map iteration reaches first, with no line number.
func referenceRead(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	t := &Trace{
		Exec:        &memory.Execution{},
		Names:       make(map[memory.Addr]string),
		WriteOrders: make(map[memory.Addr][]memory.Ref),
	}
	addrOf := make(map[string]memory.Addr)
	intern := func(name string) memory.Addr {
		if a, ok := addrOf[name]; ok {
			return a
		}
		a := memory.Addr(len(addrOf))
		addrOf[name] = a
		t.Names[a] = name
		return a
	}
	parseVal := func(tok string) (memory.Value, error) {
		n, err := strconv.ParseInt(tok, 10, 64)
		return memory.Value(n), err
	}
	ensureProc := func(p int) {
		for len(t.Exec.Histories) <= p {
			t.Exec.Histories = append(t.Exec.Histories, nil)
		}
	}

	lineNum := 0
	for sc.Scan() {
		lineNum++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "init" || fields[0] == "final":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want %q <addr> <value>", lineNum, fields[0])
			}
			v, err := parseVal(fields[2])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value %q", lineNum, fields[2])
			}
			a := intern(fields[1])
			if fields[0] == "init" {
				t.Exec.SetInitial(a, v)
			} else {
				t.Exec.SetFinal(a, v)
			}
		case fields[0] == "order":
			if len(fields) < 2 {
				return nil, fmt.Errorf("trace: line %d: want order <addr> <refs...>", lineNum)
			}
			a := intern(fields[1])
			for _, tok := range fields[2:] {
				ref, err := referenceParseRef(tok)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: %v", lineNum, err)
				}
				t.WriteOrders[a] = append(t.WriteOrders[a], ref)
			}
		case strings.HasPrefix(fields[0], "P") && strings.HasSuffix(fields[0], ":"):
			procStr := strings.TrimSuffix(strings.TrimPrefix(fields[0], "P"), ":")
			p, err := strconv.Atoi(procStr)
			if err != nil || p < 0 {
				return nil, fmt.Errorf("trace: line %d: bad processor %q", lineNum, fields[0])
			}
			if p >= maxProcs {
				return nil, fmt.Errorf("trace: line %d: processor %q exceeds the %d-processor limit", lineNum, fields[0], maxProcs)
			}
			ensureProc(p)
			op, err := referenceParseOp(fields[1:], intern, parseVal)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNum, err)
			}
			t.Arrival = append(t.Arrival, memory.Ref{Proc: p, Index: len(t.Exec.Histories[p])})
			t.Exec.Histories[p] = append(t.Exec.Histories[p], op)
		default:
			return nil, fmt.Errorf("trace: line %d: unrecognized line %q", lineNum, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := t.Exec.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	// Validate write-order refs.
	for a, refs := range t.WriteOrders {
		for _, r := range refs {
			if r.Proc >= len(t.Exec.Histories) || r.Index >= len(t.Exec.Histories[r.Proc]) {
				return nil, fmt.Errorf("trace: order for %s references %s, which does not exist", t.Name(a), r)
			}
		}
	}
	return t, nil
}

func referenceParseOp(fields []string, intern func(string) memory.Addr, parseVal func(string) (memory.Value, error)) (memory.Op, error) {
	if len(fields) == 0 {
		return memory.Op{}, fmt.Errorf("missing operation")
	}
	switch fields[0] {
	case "R", "W":
		if len(fields) != 3 {
			return memory.Op{}, fmt.Errorf("want %s <addr> <value>", fields[0])
		}
		v, err := parseVal(fields[2])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[2])
		}
		a := intern(fields[1])
		if fields[0] == "R" {
			return memory.R(a, v), nil
		}
		return memory.W(a, v), nil
	case "RW":
		if len(fields) != 4 {
			return memory.Op{}, fmt.Errorf("want RW <addr> <read> <written>")
		}
		rv, err := parseVal(fields[2])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[2])
		}
		wv, err := parseVal(fields[3])
		if err != nil {
			return memory.Op{}, fmt.Errorf("bad value %q", fields[3])
		}
		return memory.RW(intern(fields[1]), rv, wv), nil
	case "ACQ":
		return memory.Acq(), nil
	case "REL":
		return memory.Rel(), nil
	case "FENCE":
		return memory.Bar(), nil
	default:
		return memory.Op{}, fmt.Errorf("unknown operation %q", fields[0])
	}
}

// referenceParseRef parses "P3[7]".
func referenceParseRef(tok string) (memory.Ref, error) {
	if !strings.HasPrefix(tok, "P") || !strings.HasSuffix(tok, "]") {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(tok, "P"), "]")
	parts := strings.SplitN(body, "[", 2)
	if len(parts) != 2 {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	p, err1 := strconv.Atoi(parts[0])
	i, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || p < 0 || i < 0 {
		return memory.Ref{}, fmt.Errorf("bad reference %q", tok)
	}
	return memory.Ref{Proc: p, Index: i}, nil
}

// referenceWrite is the fmt writer. Write must produce the same bytes.
func referenceWrite(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	name := t.Name

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
			fmt.Fprintf(bw, "init %s %d\n", name(a), v)
		}
	}
	for _, a := range addrs {
		if v, ok := t.Exec.Final[a]; ok {
			fmt.Fprintf(bw, "final %s %d\n", name(a), v)
		}
	}
	emit := func(p int, o memory.Op) {
		switch o.Kind {
		case memory.Read:
			fmt.Fprintf(bw, "P%d: R %s %d\n", p, name(o.Addr), o.Data)
		case memory.Write:
			fmt.Fprintf(bw, "P%d: W %s %d\n", p, name(o.Addr), o.Data)
		case memory.ReadModifyWrite:
			fmt.Fprintf(bw, "P%d: RW %s %d %d\n", p, name(o.Addr), o.Data, o.Store)
		case memory.Acquire:
			fmt.Fprintf(bw, "P%d: ACQ\n", p)
		case memory.Release:
			fmt.Fprintf(bw, "P%d: REL\n", p)
		case memory.Fence:
			fmt.Fprintf(bw, "P%d: FENCE\n", p)
		}
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
		fmt.Fprintf(bw, "order %s", name(a))
		for _, r := range refs {
			fmt.Fprintf(bw, " P%d[%d]", r.Proc, r.Index)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
