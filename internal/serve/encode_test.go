package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"
)

// filler sets every field of a value by reflection from fuzz input, so
// a field added to jobState, JobSpec or Record is filled, and marshalled
// by the oracle, without this test being edited. The input is read
// cyclically: any non-empty input fills every field.
type filler struct {
	data []byte
	pos  int
}

func (f *filler) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	c := f.data[f.pos%len(f.data)]
	f.pos++
	return c
}

// word reads eight bytes as one 64-bit word.
func (f *filler) word() uint64 {
	var w uint64
	for range 8 {
		w = w<<8 | uint64(f.next())
	}
	return w
}

// fill sets v, which must be addressable, and everything under it.
// Unexported fields are set through their address.
func (f *filler) fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fv := v.Field(i)
			f.fill(t, reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem())
		}
	case reflect.String:
		s := make([]byte, f.next()%24)
		for i := range s {
			s[i] = f.next()
		}
		v.SetString(string(s)) // raw bytes: HTML-special, control and invalid UTF-8 included
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := v.Type().Bits()
		switch f.next() % 6 {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(-1)
		case 2:
			v.SetInt(-1 << (bits - 1))
		case 3:
			v.SetInt(1<<(bits-1) - 1)
		default:
			v.SetInt(int64(f.word()) >> (64 - bits))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		bits := v.Type().Bits()
		switch f.next() % 4 {
		case 0:
			v.SetUint(0)
		case 1:
			v.SetUint(math.MaxUint64 >> (64 - bits))
		default:
			v.SetUint(f.word() >> (64 - bits))
		}
	case reflect.Bool:
		v.SetBool(f.next()%2 == 1)
	case reflect.Slice:
		switch n := int(f.next() % 5); n {
		case 0:
			v.SetZero()
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1) // n = 1: empty, not nil
			for i := range n - 1 {
				f.fill(t, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Pointer:
		// jobState.j, the scheduler's handle on a waiting job: never part
		// of the durable state, left nil.
	default:
		t.Fatalf("filler: no rule for a %s field; extend the filler and the appenders", v.Type())
	}
}

// FuzzSnapshotEncoding: the appenders write exactly the bytes
// json.Marshal writes, for snapshot jobs and for WAL records, whatever
// the field values.
func FuzzSnapshotEncoding(f *testing.F) {
	f.Add([]byte{})
	// One repeated byte b makes every integer field take choice b%6 at
	// once (zero, -1, minimum, maximum, raw) and every slice b%5.
	for b := range 6 {
		f.Add([]byte{byte(b)})
	}
	f.Add([]byte("\x07<job>&\"q\"\\\x01\x1f\x7f\xff\xfe\xc3\x28\xe2\x80\xa8\xe2\x80\xa9héllo"))
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all)
	f.Add([]byte("\x03abc\x04\x05\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &filler{data: data}
		var st jobState
		src.fill(t, reflect.ValueOf(&st).Elem())
		want, err := json.Marshal(st.snap())
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSnapJob(nil, &st); !bytes.Equal(got, want) {
			t.Fatalf("appendSnapJob wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
		var rec Record
		src.fill(t, reflect.ValueOf(&rec).Elem())
		want, err = json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, &rec); !bytes.Equal(got, want) {
			t.Fatalf("appendRecord wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
	})
}

// TestWALAppendMatchesMarshal: the log file holds exactly the
// json.Marshal lines of the appended records, sequence numbers
// included.
func TestWALAppendMatchesMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), walFile)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWAL(t, w)
	batches := [][]Record{
		{
			{Op: opSubmit, At: 0, Jobs: []JobSpec{
				{Name: "a<b>&c", User: "é ", Nodes: 4, Estimate: 100},
				{Name: "bad\xffutf8", Nodes: 1, Estimate: math.MaxInt64, Runtime: -1, Deadline: math.MinInt64},
			}},
			{Op: opAdvance, At: 50},
		},
		{{Op: opSubmit, At: -7, Jobs: []JobSpec{}}},
		{{Op: opAdvance, At: math.MaxInt64}},
	}
	var want []byte
	for _, batch := range batches {
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
		for _, rec := range batch {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal file\n%s\ndiffers from the marshalled records\n%s", got, want)
	}
}
