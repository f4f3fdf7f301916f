package obs

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestSpanParentFromContext(t *testing.T) {
	ctx, parent := Trace(context.Background(), "outer")
	_, child := Trace(ctx, "inner")
	if parent.Parent != "" {
		t.Errorf("root parent = %q", parent.Parent)
	}
	if child.Parent != "outer" {
		t.Errorf("child parent = %q", child.Parent)
	}
	child.End()
	parent.End()
}

func TestSinkAggregation(t *testing.T) {
	sink := NewSink()
	for i := 0; i < 3; i++ {
		sp := &Span{Name: "stage.x", start: time.Now(), sink: sink}
		sp.SetItems(10)
		sp.SetWorkers(4)
		sp.End()
	}
	snap := sink.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("stages = %d", len(snap))
	}
	st := snap[0]
	if st.Calls != 3 || st.Items != 30 || st.Workers != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalNs <= 0 {
		t.Errorf("total = %d", st.TotalNs)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	sink := NewSink()
	sp := &Span{Name: "once", start: time.Now(), sink: sink}
	sp.End()
	sp.End()
	if got := sink.Snapshot()[0].Calls; got != 1 {
		t.Errorf("calls = %d, want 1", got)
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
	nilSpan.SetItems(1)
	nilSpan.SetWorkers(1)
}

func TestReportRendersStagesAndPercents(t *testing.T) {
	sink := NewSink()
	root := &Span{Name: "study.build", start: time.Now().Add(-100 * time.Millisecond), sink: sink}
	root.SetItems(500)
	root.End()
	child := &Span{Name: "study.build.align", Parent: "study.build",
		start: time.Now().Add(-40 * time.Millisecond), sink: sink}
	child.End()
	rep := sink.Report()
	for _, want := range []string{"study.build", "study.build.align", "%", "items/s", "workers"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// The child must be indented under its parent.
	if !strings.Contains(rep, "  study.build.align") {
		t.Errorf("child not indented:\n%s", rep)
	}
}

func TestReportEmptySink(t *testing.T) {
	if rep := NewSink().Report(); !strings.Contains(rep, "no stages") {
		t.Errorf("empty report = %q", rep)
	}
}

func TestTraceFeedsDefaultSinkAndMetrics(t *testing.T) {
	_, sp := Trace(context.Background(), "test.tracestage")
	sp.SetItems(7)
	sp.End()
	found := false
	for _, st := range Snapshot() {
		if st.Name == "test.tracestage" && st.Items == 7 {
			found = true
		}
	}
	if !found {
		t.Error("span not recorded in DefaultSink")
	}
	var b strings.Builder
	WritePrometheus(&b)
	if !strings.Contains(b.String(), `stage_duration_seconds_count{stage="test.tracestage"} `) {
		t.Errorf("stage metric missing:\n%s", b.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("expected error for unknown level")
	}
}

func TestLoggerRespectsLevel(t *testing.T) {
	var buf strings.Builder
	SetOutput(&buf)
	defer func() {
		SetOutput(nil)
		SetLevel(slog.LevelInfo)
	}()
	if err := ConfigureLogging(false, "warn"); err != nil {
		t.Fatal(err)
	}
	log := Logger("test")
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("level filtering broken:\n%s", out)
	}
	if !strings.Contains(out, "component=test") {
		t.Errorf("component attr missing:\n%s", out)
	}
	if err := ConfigureLogging(true, "error"); err != nil {
		t.Fatal(err)
	}
	if Level() != slog.LevelDebug {
		t.Errorf("-v should force debug, got %v", Level())
	}
}
