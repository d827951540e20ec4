package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins that out-of-range -table and -shard values and
// journal-less -resume/-shards are refused instead of silently printing
// nothing or running the whole grid.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		table   int
		rb      robustness
		wantErr string // "" = accepted
	}{
		{"defaults", 0, robustness{shards: 1}, ""},
		{"table 1", 1, robustness{shards: 1}, ""},
		{"table 8", 8, robustness{shards: 1}, ""},
		{"table 9", 9, robustness{shards: 1}, "-table 9"},
		{"table -3", -3, robustness{shards: 1}, "-table -3"},
		{"shard 3 of 1", 0, robustness{shards: 1, shard: 3}, "-shard 3"},
		{"shard -1", 0, robustness{shards: 2, shard: -1, journalPath: "s.jsonl"}, "-shard -1"},
		{"shard 2 of 2", 0, robustness{shards: 2, shard: 2, journalPath: "s.jsonl"}, "-shard 2"},
		{"shard 1 of 2", 0, robustness{shards: 2, shard: 1, journalPath: "s.jsonl"}, ""},
		{"shards 0", 0, robustness{shards: 0}, "-shards 0"},
		{"shards without journal", 0, robustness{shards: 2}, "-shards needs -journal"},
		{"resume without journal", 0, robustness{shards: 1, resume: true}, "-resume needs -journal"},
		{"resume with journal", 3, robustness{shards: 1, resume: true, journalPath: "j.jsonl"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.table, tc.rb)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
