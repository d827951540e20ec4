package serve

import (
	"encoding/json"
	"strconv"
)

// The appenders below write snapshot jobs and WAL records without
// reflection. Each emits exactly the bytes json.Marshal writes for the
// same value: the fields in struct-tag order, omitempty fields left out
// when zero. json.Marshal stays the oracle (TestSnapshotStreamMatchesMarshal,
// FuzzSnapshotEncoding), so a field added to snapJob, JobSpec or Record
// fails those tests until it is written here too.

// appendJSONString appends s as a JSON string. A string of printable
// ASCII with no quote, backslash or HTML-special byte is copied as is;
// any other goes through json.Marshal, which keeps encoding/json's HTML,
// control-character and UTF-8 escaping exact.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJobSpec appends sp as the JSON object json.Marshal writes.
func appendJobSpec(b []byte, sp *JobSpec) []byte {
	b = append(b, '{')
	if sp.Name != "" {
		b = append(b, `"name":`...)
		b = appendJSONString(b, sp.Name)
		b = append(b, ',')
	}
	if sp.User != "" {
		b = append(b, `"user":`...)
		b = appendJSONString(b, sp.User)
		b = append(b, ',')
	}
	b = append(b, `"nodes":`...)
	b = strconv.AppendInt(b, int64(sp.Nodes), 10)
	b = append(b, `,"estimate":`...)
	b = strconv.AppendInt(b, sp.Estimate, 10)
	if sp.Runtime != 0 {
		b = append(b, `,"runtime":`...)
		b = strconv.AppendInt(b, sp.Runtime, 10)
	}
	if sp.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, sp.Deadline, 10)
	}
	return append(b, '}')
}

// appendSnapJob appends the bytes json.Marshal(st.snap()) writes.
func appendSnapJob(b []byte, st *jobState) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(st.id), 10)
	b = append(b, `,"spec":`...)
	b = appendJobSpec(b, &st.spec)
	b = append(b, `,"submit":`...)
	b = strconv.AppendInt(b, st.submit, 10)
	if st.start != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, st.start, 10)
	}
	if st.end != 0 {
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, st.end, 10)
	}
	if st.seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, int64(st.seq), 10)
	}
	if st.rank != 0 {
		b = append(b, `,"rank":`...)
		b = strconv.AppendInt(b, int64(st.rank), 10)
	}
	if st.status != "" {
		b = append(b, `,"status":`...)
		b = appendJSONString(b, string(st.status))
	}
	return append(b, '}')
}

// appendRecord appends the bytes json.Marshal(rec) writes.
func appendRecord(b []byte, rec *Record) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"op":`...)
	b = appendJSONString(b, rec.Op)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, rec.At, 10)
	if len(rec.Jobs) > 0 {
		b = append(b, `,"jobs":[`...)
		for i := range rec.Jobs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJobSpec(b, &rec.Jobs[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}
