package repl

import (
	"strings"
	"testing"
)

// .analyze classifies everything installed as one program: a key
// declared in one statement makes an update typed in another a point
// of order.
func TestAnalyzeKeyAcrossStatements(t *testing.T) {
	out := drive(t, `
table kv(K: string, V: int) keys(0);
event bump(K: string);
up next kv(K, V + 1) :- bump(K), kv(K, V);
.analyze
`)
	if !strings.Contains(out, "1 rules, 0 monotone") || !strings.Contains(out, "key-replacing update of kv") {
		t.Fatalf("analyze output:\n%s", out)
	}
}
