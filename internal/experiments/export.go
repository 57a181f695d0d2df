package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export of every experiment result, so the paper's figures can be
// replotted from the regenerated data with any plotting tool.

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV dumps the per-case sweep errors.
func (r *Phase1Result) WriteCSV(dir string) error {
	rows := make([][]string, len(r.Errors))
	for i, e := range r.Errors {
		rows[i] = []string{strconv.Itoa(i), f(e)}
	}
	return writeCSV(filepath.Join(dir, "phase1_errors.csv"), []string{"case", "err_pct"}, rows)
}

// WriteCSV dumps the figure-5 bars.
func (r *Fig5Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, c := range r.Cases {
		rows = append(rows, []string{c.Name, strconv.Itoa(c.Nodes), strconv.Itoa(c.Runs),
			f(c.MeanErr), f(c.CI), f(c.Predicted), f(c.MeanTime)})
	}
	return writeCSV(filepath.Join(dir, "fig5.csv"),
		[]string{"benchmark", "nodes", "runs", "mean_err_pct", "ci95", "predicted_s", "measured_s"}, rows)
}

// WriteCSV dumps the load-sensitivity rows.
func (r *Phase3Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Program, strconv.Itoa(row.LoadPct),
			strconv.FormatBool(row.Stale), f(row.MeanErr), f(row.CI)})
	}
	return writeCSV(filepath.Join(dir, "phase3.csv"),
		[]string{"program", "load_pct", "stale_snapshot", "mean_err_pct", "ci95"}, rows)
}

// WriteCSV dumps every sampled mapping time per zone.
func (r *Fig6Result) WriteCSV(dir string) error {
	var rows [][]string
	for zi, z := range r.Zones {
		for _, t := range z.Times {
			rows = append(rows, []string{strconv.Itoa(zi + 1), z.Name, f(t)})
		}
	}
	return writeCSV(filepath.Join(dir, "fig6.csv"),
		[]string{"zone", "name", "measured_s"}, rows)
}

// WriteCSV dumps the worst-vs-best rows. The wall-clock scheduler time
// stays in the rendered table only, so the file is a function of
// (scale, seed).
func (r *Table1Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Case, f(row.WorstTime), f(row.WorstCI),
			f(row.BestTime), f(row.BestCI), f(row.SpeedupPct)})
	}
	return writeCSV(filepath.Join(dir, "table1.csv"),
		[]string{"case", "worst_s", "worst_ci", "best_s", "best_ci", "speedup_pct"}, rows)
}

// WriteCSV dumps the average-case rows.
func (r *Table2Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Case, row.Scheduler, strconv.Itoa(row.Runs),
			f(row.AvgPredicted), f(row.PredCI), f(row.HitsPct), f(row.AvgMeasured), f(row.MeasCI)})
	}
	return writeCSV(filepath.Join(dir, "table2.csv"),
		[]string{"case", "scheduler", "runs", "avg_pred_s", "pred_ci", "hits_pct", "avg_meas_s", "meas_ci"}, rows)
}

// WriteCSV dumps both histograms.
func (r *Fig7Result) WriteCSV(dir string) error {
	var rows [][]string
	for i := range r.CS.Counts {
		rows = append(rows, []string{f(r.CS.BucketLo(i)),
			strconv.Itoa(r.CS.Counts[i]), strconv.Itoa(r.NCS.Counts[i])})
	}
	return writeCSV(filepath.Join(dir, "fig7.csv"),
		[]string{"bucket_lo_s", "cs_count", "ncs_count"}, rows)
}

// WriteCSV dumps the other-programs worst-vs-best rows.
func (r *Table3Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Case, f(row.WorstTime), f(row.BestTime),
			f(row.SpeedupPct), f(row.CommFraction), strconv.FormatBool(row.Uncertain)})
	}
	return writeCSV(filepath.Join(dir, "table3.csv"),
		[]string{"case", "worst_s", "best_s", "speedup_pct", "comm_fraction", "uncertain"}, rows)
}

// WriteCSV dumps the other-programs average-case rows.
func (r *Table4Result) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Case, row.Scheduler, strconv.Itoa(row.Runs),
			f(row.AvgPredicted), f(row.HitsPct), f(row.AvgMeasured)})
	}
	return writeCSV(filepath.Join(dir, "table4.csv"),
		[]string{"case", "scheduler", "runs", "avg_pred_s", "hits_pct", "avg_meas_s"}, rows)
}

// WriteCSV dumps the headline summary as key/value pairs.
func (r *HeadlineResult) WriteCSV(dir string) error {
	rows := [][]string{
		{"grove_spread_pct", f(r.GroveSpreadPct)},
		{"centurion_spread_pct", f(r.CenturionSpreadPct)},
		{"best_vs_random_max_pct", f(r.BestVsRandomMaxPct)},
		{"best_vs_random_avg_pct", f(r.BestVsRandomAvgPct)},
		{"comm_speedup_pct", f(r.CommSpeedupPct)},
		{"efficiency_pct", f(r.EfficiencyPct)},
	}
	return writeCSV(filepath.Join(dir, "headline.csv"), []string{"metric", "value"}, rows)
}

// WriteCSV dumps the fault-tolerance timeline.
func (r *FaultTolResult) WriteCSV(dir string) error {
	var rows [][]string
	for _, s := range r.Steps {
		rows = append(rows, []string{f(s.TimeSec), strconv.Itoa(s.Down), strconv.Itoa(s.Suspect),
			strconv.Itoa(s.Injected), f(s.CSPred), f(s.RSPred), f(s.RSPenaltyPct),
			strconv.FormatBool(s.CSDegraded), s.Advice})
	}
	return writeCSV(filepath.Join(dir, "faulttol.csv"),
		[]string{"t_s", "down", "suspect", "faults_injected", "cs_pred_s", "rs_pred_s",
			"rs_penalty_pct", "cs_degraded", "advice"}, rows)
}

// CSVWriter is implemented by every experiment result.
type CSVWriter interface {
	WriteCSV(dir string) error
}

// ExportAll writes every non-nil result to dir (created if needed).
func ExportAll(dir string, results ...CSVWriter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		if err := r.WriteCSV(dir); err != nil {
			return err
		}
	}
	return nil
}

// countCSVRows is a test helper: rows excluding the header.
func countCSVRows(rd io.Reader) (int, error) {
	recs, err := csv.NewReader(rd).ReadAll()
	if err != nil {
		return 0, err
	}
	return len(recs) - 1, nil
}
