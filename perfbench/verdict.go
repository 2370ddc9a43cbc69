package main

import (
	"fmt"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/race"
)

// Verdict is what a check must agree on: whether the trace is clean, the
// index of the first violation (-1 when clean) and how many events the
// analysis consumed.
type Verdict struct {
	Clean  bool
	Index  int64
	Events int64
}

func (v Verdict) String() string {
	if v.Clean {
		return fmt.Sprintf("clean after %d events", v.Events)
	}
	return fmt.Sprintf("violation at event %d (%d events)", v.Index, v.Events)
}

func verdictOf(v *core.Violation, n int64) Verdict {
	if v == nil {
		return Verdict{Clean: true, Index: -1, Events: n}
	}
	return Verdict{Index: v.Index, Events: n}
}

func raceVerdictOf(v *race.Violation, n int64) Verdict {
	if v == nil {
		return Verdict{Clean: true, Index: -1, Events: n}
	}
	return Verdict{Index: v.Index, Events: n}
}

func publicVerdict(clean bool, v *aerodrome.Violation, n int64) Verdict {
	if clean || v == nil {
		return Verdict{Clean: clean, Index: -1, Events: n}
	}
	return Verdict{Index: v.EventIndex, Events: n}
}

// errMismatch marks a verdict that disagrees with the reference: the
// program is wrong, not merely unavailable.
type errMismatch struct{ msg string }

func (e *errMismatch) Error() string { return e.msg }

func compareVerdict(what string, want, got Verdict) error {
	if want != got {
		return &errMismatch{fmt.Sprintf("%s: got %v, want %v", what, got, want)}
	}
	return nil
}

// compareReport checks an HTTP report against the references: the
// top-level atomicity verdict always, and the hbrace entry when the
// request asked for it.
func compareReport(what string, in *input, rep *aerodrome.Report) error {
	if err := compareVerdict(what, in.want, publicVerdict(rep.Serializable, rep.Violation, rep.Events)); err != nil {
		return err
	}
	if in.race == nil {
		return nil
	}
	for _, ar := range rep.Analyses {
		if ar.Analysis == string(aerodrome.AnalysisHBRace) {
			return compareVerdict(what+" hbrace", *in.race, publicVerdict(ar.Clean, ar.Violation, ar.Events))
		}
	}
	return &errMismatch{what + ": report has no hbrace analysis"}
}
