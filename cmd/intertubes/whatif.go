package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"intertubes"
	"intertubes/internal/jobs"
	"intertubes/internal/obs"
	"intertubes/internal/scenario"
)

// whatifCmd evaluates declarative what-if scenarios against the
// constructed long-haul map: conduit cuts (explicit, most-shared,
// most-between, regional disasters), provider removal, and new conduit
// builds, reported as deltas against the baseline study. A scenario
// file is the JSON form of scenario.Scenario, e.g.:
//
//	{"name": "gulf plus level3 exit",
//	 "preset": "gulf-hurricane",
//	 "removeISPs": ["Level 3"]}
//
// -grid switches to the exhaustive disaster-grid sweep: every cell of a
// CellKm-spaced lattice over the mapped conduits, crossed with the
// -grid-radii ladder, evaluated through an in-memory job store — the
// same machinery fibermapd serves at POST /api/jobs/sweep, minus the
// checkpoint directory. The artifact is the ASCII severity raster
// (-grid-format grid, the default) or the GeoJSON FeatureCollection
// (-grid-format geojson), written to -grid-out or stdout.
func whatifCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		preset      = fs.String("preset", "", "evaluate a named preset scenario")
		file        = fs.String("file", "", "evaluate a scenario spec from a JSON file (- for stdin)")
		listPresets = fs.Bool("list-presets", false, "list the preset scenarios and exit")
		asJSON      = fs.Bool("json", false, "emit the full Result as JSON instead of the text report")
		traceOut    = fs.String("trace", "", "write the evaluation's Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
		gridCell    = fs.Float64("grid", 0, "run an exhaustive disaster-grid sweep with this lattice spacing in km (0 = off)")
		gridRadii   = fs.String("grid-radii", "100,250", "comma-separated disaster-radius ladder in km for -grid")
		gridFormat  = fs.String("grid-format", "grid", "grid artifact format: grid (ASCII raster) or geojson")
		gridOut     = fs.String("grid-out", "", "write the grid artifact to this file instead of stdout")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		if *listPresets {
			for _, sc := range scenario.Presets() {
				fmt.Fprintf(out, "%-16s %s\n", sc.Name, describe(sc))
			}
			return nil
		}

		if *gridCell != 0 {
			if *preset != "" || *file != "" || *asJSON || *traceOut != "" {
				return fmt.Errorf("-grid is a whole-map sweep; it cannot be combined with -preset, -file, -json or -trace")
			}
			radii, err := parseRadii(*gridRadii)
			if err != nil {
				return err
			}
			if *gridFormat != "grid" && *gridFormat != "geojson" {
				return fmt.Errorf("-grid-format must be grid or geojson (got %q)", *gridFormat)
			}
			study := intertubes.NewStudy(opts)
			spec := scenario.GridSpec{CellKm: *gridCell, RadiiKm: radii}
			return runGrid(study, spec, opts.Workers, *gridFormat, *gridOut, out)
		}

		sc, err := loadScenario(*preset, *file)
		if err != nil {
			return err
		}

		study := intertubes.NewStudy(opts)
		ctx := context.Background()
		var sp *obs.Span
		if *traceOut != "" {
			ctx, sp = obs.StartTrace(ctx, "whatif.evaluate")
		}
		res, err := study.WhatIf(ctx, sc)
		if *traceOut != "" {
			sp.End()
			if werr := writeTrace(*traceOut, sp.TraceID()); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		if !*asJSON {
			fmt.Fprintln(out, scenario.Render(res))
			return nil
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", " ")
		return enc.Encode(res)
	}
}

// parseRadii parses the -grid-radii comma list; validation beyond
// syntax is the spec's job.
func parseRadii(s string) ([]float64, error) {
	var radii []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-grid-radii: bad radius %q: %w", part, err)
		}
		radii = append(radii, r)
	}
	if len(radii) == 0 {
		return nil, fmt.Errorf("-grid-radii: at least one radius required")
	}
	return radii, nil
}

// runGrid runs the sweep through an in-memory job store — the exact
// path fibermapd's batch lane takes, so the CLI artifact is
// byte-identical to what GET /api/jobs/{id}/result would serve for the
// same spec and seed, at any worker count.
func runGrid(study *intertubes.Study, spec scenario.GridSpec, workers int, format, outPath string, out io.Writer) error {
	store, err := jobs.NewStore(study.Scenarios().Engine(), jobs.Options{Workers: workers})
	if err != nil {
		return err
	}
	defer store.Close()

	st, err := store.Submit(spec)
	if err != nil {
		return err
	}
	if st, err = store.Wait(st.ID); err != nil {
		return err
	}
	if st.State != jobs.StateDone {
		return fmt.Errorf("grid sweep %s ended %s: %s", st.ID, st.State, st.Err)
	}
	h, err := store.Heatmap(st.ID)
	if err != nil {
		return err
	}

	var raw []byte
	if format == "geojson" {
		if raw, err = h.GeoJSON(); err != nil {
			return err
		}
	} else {
		raw = []byte(h.RenderGrid())
	}
	if outPath != "" {
		return os.WriteFile(outPath, raw, 0o644)
	}
	_, err = out.Write(raw)
	return err
}

// writeTrace renders the recorded evaluation as Chrome trace-event
// JSON. An empty trace ID means the recorder is disabled — surfaced
// as an error because the user explicitly asked for a trace.
func writeTrace(path, id string) error {
	if id == "" {
		return fmt.Errorf("-trace: flight recorder is disabled, no trace recorded")
	}
	tr, ok := obs.DefaultTraces.Get(id)
	if !ok {
		return fmt.Errorf("-trace: trace %s was not retained", id)
	}
	buf, err := tr.ChromeTrace()
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// loadScenario builds the scenario from the flags: a file spec, a
// preset name, or both (the file composes on top of the preset).
func loadScenario(preset, file string) (scenario.Scenario, error) {
	var sc scenario.Scenario
	switch {
	case file != "":
		var raw []byte
		var err error
		if file == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(file)
		}
		if err != nil {
			return sc, err
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			return sc, fmt.Errorf("parsing %s: %w", file, err)
		}
		if preset != "" {
			sc.Preset = preset
		}
	case preset != "":
		sc.Preset = preset
	default:
		return sc, fmt.Errorf("nothing to evaluate: pass -preset, -file, or -list-presets")
	}
	return sc, nil
}

// describe summarizes a preset's perturbation in one line.
func describe(sc scenario.Scenario) string {
	switch {
	case len(sc.Regions) > 0:
		r := sc.Regions[0]
		return fmt.Sprintf("regional disaster at (%.2f, %.2f), radius %.0f km", r.Lat, r.Lon, r.RadiusKm)
	case sc.CutMostShared > 0:
		return fmt.Sprintf("cut the %d most-shared conduits", sc.CutMostShared)
	case sc.CutMostBetween > 0:
		return fmt.Sprintf("cut the %d highest-betweenness conduits", sc.CutMostBetween)
	case len(sc.RemoveISPs) > 0:
		return fmt.Sprintf("remove provider(s): %v", sc.RemoveISPs)
	default:
		return "custom perturbation"
	}
}
