package trace

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// FuzzRead checks Read against referenceRead, the line reader it
// replaced, and Write against referenceWrite:
//
//   - both readers succeed or both fail;
//   - on success the traces are reflect.DeepEqual — Exec (histories,
//     initial and final values), Names, WriteOrders and Arrival — so a
//     nil slice or map and an empty one count as different, and Read
//     must build exactly the reference's nil and empty shapes;
//   - every Read error begins "trace: line N:", and when the reference
//     error names a line, N is that line;
//   - Write's bytes equal referenceWrite's, and a parsed trace
//     round-trips through Write and Read to a fixpoint;
//   - cut into blocks of a few bytes and parsed by one to four
//     goroutines, the input reads as the one-block parse reads it: a
//     reflect.DeepEqual trace, or the same error string.
func FuzzRead(f *testing.F) {
	f.Add(sample)
	f.Add("init x 0\nP0: W x 1\n")
	f.Add("P0: RW y -3 4\norder y P0[0]\n")
	f.Add("# only a comment\n")
	f.Add("P1: ACQ\nP1: FENCE\nP1: REL\n")
	// Malformed shapes the parser must reject without panicking:
	// truncated lines, garbage bytes, huge numbers, dangling refs.
	f.Add("init x\n")
	f.Add("P0: W x\n")
	f.Add("P0:\n")
	f.Add("\x00\xff garbage\n")
	f.Add("P999999999: W x 1\n")
	f.Add("P-1: W x 1\n")
	f.Add("init x 99999999999999999999999999\n")
	f.Add("order x P0[0] P1[7]\nP0: W x 1\n")
	f.Add("order x\n")
	f.Add("P0: Q x 1\n")
	f.Add("init x 0\ninit x 1\nfinal x 0\nfinal x 2\n")
	f.Add("P0: W x 1\nP0: W x 1\nP0: R x 1\nP0: R x 1\n")
	// Spaces, line ends and number spellings the byte-level reader must
	// accept exactly as strings.Fields, strings.TrimSpace, ParseInt and
	// Atoi do.
	f.Add("init x 0\r\nP0: W x 1\r\nP1: R x 1\r\norder x P0[0]\r\n")
	f.Add("P0:\tW\vx\f1\n\t P1: R x 1 \t\n")
	f.Add("P0: W\u0085x\u00a01\nP1:\u00a0R x\u20031\n\u0085# comment\n")
	f.Add("P0: W x\xc2 1\nP0: R \xffx 1\n")
	f.Add("P0: W x\xc2\x85 1\n")
	f.Add("init x +5\nP0: W x -0\nP0: R x 007\nP0: RW x +007 -0\n")
	f.Add("P0: W x 9223372036854775807\nP0: W x -9223372036854775808\n")
	f.Add("P0: W x 9223372036854775808\n")
	f.Add("P0: W x -9223372036854775809\n")
	f.Add("P+1: W x 1\nP01: R x 1\nP-0: ACQ extra fields\norder x P+1[+0] P01[00]\n")
	f.Add("P0: W x 1")
	f.Add("   # indented comment\n\t#tab\nP0: W x 1 # not a comment\n")
	f.Add("order y P0[0] P3[1]\norder x P0[5]\nP0: W x 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Read promises that every trace it returns passes Validate.
		valid := func(tr *Trace, err error) {
			if err == nil {
				if verr := tr.Exec.Validate(); verr != nil {
					t.Fatalf("returned trace fails Validate: %v", verr)
				}
			}
		}
		whole, wholeErr := readOneBlock(input)
		valid(whole, wholeErr)
		for _, c := range []struct{ size, workers int }{{1, 1}, {2, 4}, {5, 2}, {13, 3}} {
			got, gotErr := read(strings.NewReader(input), c.size, c.workers)
			valid(got, gotErr)
			if d := sameRead(got, gotErr, whole, wholeErr); d != "" {
				t.Fatalf("blocks of %d bytes, %d workers: %s", c.size, c.workers, d)
			}
		}
		tr, err := Read(strings.NewReader(input))
		valid(tr, err)
		ref, refErr := referenceRead(strings.NewReader(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read error %v, reference error %v", err, refErr)
		}
		if err != nil {
			m := errLine.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q does not begin \"trace: line N:\"", err)
			}
			if rm := errLine.FindStringSubmatch(refErr.Error()); rm != nil && rm[1] != m[1] {
				t.Fatalf("error %q, reference error %q: lines differ", err, refErr)
			}
			return
		}
		if field := traceDiff(tr, ref); field != "" {
			t.Fatalf("%s differs from the reference:\n%#v\nvs\n%#v", field, tr, ref)
		}
		var buf, refBuf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("write of parsed trace failed: %v", err)
		}
		if err := referenceWrite(&refBuf, tr); err != nil {
			t.Fatal(err)
		}
		if buf.String() != refBuf.String() {
			t.Fatalf("Write differs from the reference writer:\n%s\nvs\n%s", buf.String(), refBuf.String())
		}
		tr2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v\n%s", err, buf.String())
		}
		valid(tr2, nil)
		var buf2 bytes.Buffer
		if err := Write(&buf2, tr2); err != nil {
			t.Fatal(err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("write/read/write not a fixpoint:\n%s\nvs\n%s", buf.String(), buf2.String())
		}
	})
}

var errLine = regexp.MustCompile(`^trace: line (\d+): `)

// traceDiff names the first field in which a and b differ under
// reflect.DeepEqual, or returns "".
func traceDiff(a, b *Trace) string {
	switch {
	case !reflect.DeepEqual(a.Exec.Histories, b.Exec.Histories):
		return "Exec.Histories"
	case !reflect.DeepEqual(a.Exec.Initial, b.Exec.Initial):
		return "Exec.Initial"
	case !reflect.DeepEqual(a.Exec.Final, b.Exec.Final):
		return "Exec.Final"
	case !reflect.DeepEqual(a.Names, b.Names):
		return "Names"
	case !reflect.DeepEqual(a.WriteOrders, b.WriteOrders):
		return "WriteOrders"
	case !reflect.DeepEqual(a.Arrival, b.Arrival):
		return "Arrival"
	}
	return ""
}
