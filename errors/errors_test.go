package errors

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestSentinelIsMatching(t *testing.T) {
	cases := []struct {
		err      error
		sentinel *Error
	}{
		{New(CodeParse, "bad token at %d", 7), ErrParse},
		{New(CodeUnknownTable, "no such table"), ErrUnknownTable},
		{New(CodeUnknownView, "no such view"), ErrUnknownView},
		{New(CodeStaleView, "view is stale"), ErrStaleView},
		{New(CodeNotDerivable, "window too wide"), ErrNotDerivable},
		{New(CodeCancelled, "interrupted"), ErrCancelled},
		{New(CodeUnsupported, "no UPDATE of views"), ErrUnsupported},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("errors.Is(%v, %v) = false, want true", c.err, c.sentinel)
		}
	}
	// Distinct codes must not match.
	if errors.Is(New(CodeParse, "x"), ErrUnknownTable) {
		t.Errorf("parse error matched ErrUnknownTable")
	}
}

func TestIsSurvivesWrapping(t *testing.T) {
	base := New(CodeStaleView, "view %q stale", "mv1")
	wrapped := fmt.Errorf("refresh pipeline: %w", fmt.Errorf("step 3: %w", base))
	if !errors.Is(wrapped, ErrStaleView) {
		t.Fatalf("errors.Is through two fmt.Errorf layers = false")
	}
	if CodeOf(wrapped) != CodeStaleView {
		t.Fatalf("CodeOf(wrapped) = %q, want %q", CodeOf(wrapped), CodeStaleView)
	}
}

func TestWrapKeepsCause(t *testing.T) {
	cause := errors.New("disk on fire")
	err := Wrap(CodeInternal, cause)
	if !errors.Is(err, cause) {
		t.Fatalf("wrapped cause unreachable via errors.Is")
	}
	if err.Error() != "disk on fire" {
		t.Fatalf("Error() = %q", err.Error())
	}
	if werr := Wrapf(CodeParse, cause, "parsing %q", "SELECT"); werr.Error() != `parsing "SELECT": disk on fire` {
		t.Fatalf("Wrapf Error() = %q", werr.Error())
	}
	if Wrap(CodeParse, nil) != nil || Wrapf(CodeParse, nil, "x") != nil {
		t.Fatalf("wrapping nil must return nil")
	}
}

func TestCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{New(CodeParse, "x"), CodeParse},
		{Wrap(CodeCancelled, errors.New("ctx")), CodeCancelled},
		{context.Canceled, CodeCancelled},
		{context.DeadlineExceeded, CodeCancelled},
		{fmt.Errorf("outer: %w", context.Canceled), CodeCancelled},
		{errors.New("plain"), CodeInternal},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.want {
			t.Errorf("CodeOf(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestFromCodeRoundTrip is the wire-protocol contract: code → FromCode must
// satisfy the same sentinel checks as the original engine error.
func TestFromCodeRoundTrip(t *testing.T) {
	for _, sentinel := range []*Error{
		ErrParse, ErrUnknownTable, ErrUnknownView, ErrStaleView,
		ErrNotDerivable, ErrCancelled, ErrUnsupported, ErrBadRequest,
	} {
		orig := New(sentinel.Code, "engine-side detail")
		wire := string(CodeOf(orig)) // what the server puts in Response.Code
		back := FromCode(Code(wire), "server: "+orig.Error())
		if !errors.Is(back, sentinel) {
			t.Errorf("code %q: reconstructed error does not match sentinel", wire)
		}
	}
	// Unknown and empty codes degrade to internal, never to a false match.
	for _, raw := range []string{"", "bogus"} {
		back := FromCode(Code(raw), "m")
		if CodeOf(back) != CodeInternal {
			t.Errorf("FromCode(%q) code = %q, want internal", raw, CodeOf(back))
		}
		if errors.Is(back, ErrParse) || errors.Is(back, ErrCancelled) {
			t.Errorf("FromCode(%q) matched a specific sentinel", raw)
		}
	}
}
