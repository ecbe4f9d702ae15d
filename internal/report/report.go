// Package report renders human- and machine-readable summaries of an
// anonymization run: what was published, what it cost, what it guarantees,
// and what residual risk remains. The cmd/diva tool emits these with
// -report; libraries can embed the same Report in their own tooling.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"diva/internal/constraint"
	"diva/internal/metrics"
	"diva/internal/relation"
)

// ConstraintStatus records the outcome of one diversity constraint against
// the published relation.
type ConstraintStatus struct {
	Constraint string `json:"constraint"`
	Lower      int    `json:"lower"`
	Upper      int    `json:"upper"`
	Count      int    `json:"count"`
	Satisfied  bool   `json:"satisfied"`
}

// Report is a full summary of an anonymization run.
type Report struct {
	Tuples         int                       `json:"tuples"`
	QIAttributes   int                       `json:"qiAttributes"`
	K              int                       `json:"k"`
	KAnonymous     bool                      `json:"kAnonymous"`
	SuppressedQI   int                       `json:"suppressedQICells"`
	Accuracy       float64                   `json:"accuracy"`
	Discernibility int                       `json:"discernibility"`
	Risk           metrics.Risk              `json:"risk"`
	Constraints    []ConstraintStatus        `json:"constraints,omitempty"`
	ByAttribute    []metrics.AttributeLoss   `json:"byAttribute"`
	GroupSizes     []metrics.GroupSizeBucket `json:"groupSizes"`
}

// Build assembles a Report for the published relation out at privacy level
// k, evaluating sigma against it (sigma may be nil). It groups out by its QI
// vectors once and reads every group-based metric from that grouping.
func Build(out *relation.Relation, sigma constraint.Set, k int) (*Report, error) {
	groups := out.QIGroups()
	r := &Report{
		Tuples:         out.Len(),
		QIAttributes:   len(out.Schema().QIIndexes()),
		K:              k,
		KAnonymous:     metrics.GroupsKAnonymous(groups, k),
		SuppressedQI:   metrics.SuppressionLoss(out),
		Accuracy:       metrics.Accuracy(out),
		Discernibility: metrics.GroupsDiscernibility(groups, out.Len(), k),
		Risk:           metrics.GroupsRisk(groups, out.Len()),
		ByAttribute:    metrics.PerAttributeLoss(out),
		GroupSizes:     metrics.GroupsSizeHistogram(groups),
	}
	if len(sigma) > 0 {
		bounds, err := sigma.Bind(out)
		if err != nil {
			return nil, err
		}
		for _, b := range bounds {
			n := b.CountIn(out)
			r.Constraints = append(r.Constraints, ConstraintStatus{
				Constraint: b.Source.String(),
				Lower:      b.Lower,
				Upper:      b.Upper,
				Count:      n,
				Satisfied:  n >= b.Lower && n <= b.Upper,
			})
		}
	}
	return r, nil
}

// WriteText renders the report as aligned plain text.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "anonymization report\n")
	fmt.Fprintf(&b, "  tuples            %d\n", r.Tuples)
	fmt.Fprintf(&b, "  k                 %d (k-anonymous: %t)\n", r.K, r.KAnonymous)
	fmt.Fprintf(&b, "  suppressed cells  %d of %d QI cells (accuracy %.4f)\n",
		r.SuppressedQI, r.Tuples*r.QIAttributes, r.Accuracy)
	fmt.Fprintf(&b, "  discernibility    %d\n", r.Discernibility)
	fmt.Fprintf(&b, "  risk              max %.4f, avg %.4f, unique tuples %d\n",
		r.Risk.MaxRisk, r.Risk.AvgRisk, r.Risk.UniqueTuples)
	if len(r.Constraints) > 0 {
		fmt.Fprintf(&b, "  constraints\n")
		for _, c := range r.Constraints {
			status := "ok"
			if !c.Satisfied {
				status = "VIOLATED"
			}
			fmt.Fprintf(&b, "    %-40s count %d in [%d, %d]  %s\n", c.Constraint, c.Count, c.Lower, c.Upper, status)
		}
	}
	fmt.Fprintf(&b, "  per-attribute suppression\n")
	for _, a := range r.ByAttribute {
		fmt.Fprintf(&b, "    %-12s %6d (%.1f%%)\n", a.Attr, a.Suppressed, a.Fraction*100)
	}
	fmt.Fprintf(&b, "  QI-group sizes\n")
	for _, g := range r.GroupSizes {
		fmt.Fprintf(&b, "    size %-5d × %-6d (%d tuples)\n", g.Size, g.Groups, g.Tuples)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMarkdown renders the report as Markdown.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Anonymization report\n\n")
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| tuples | %d |\n", r.Tuples)
	fmt.Fprintf(&b, "| k | %d |\n", r.K)
	fmt.Fprintf(&b, "| k-anonymous | %t |\n", r.KAnonymous)
	fmt.Fprintf(&b, "| suppressed QI cells | %d |\n", r.SuppressedQI)
	fmt.Fprintf(&b, "| accuracy | %.4f |\n", r.Accuracy)
	fmt.Fprintf(&b, "| discernibility | %d |\n", r.Discernibility)
	fmt.Fprintf(&b, "| max / avg risk | %.4f / %.4f |\n", r.Risk.MaxRisk, r.Risk.AvgRisk)
	if len(r.Constraints) > 0 {
		fmt.Fprintf(&b, "\n## Diversity constraints\n\n")
		fmt.Fprintf(&b, "| constraint | count | range | satisfied |\n|---|---|---|---|\n")
		for _, c := range r.Constraints {
			fmt.Fprintf(&b, "| `%s` | %d | [%d, %d] | %t |\n", c.Constraint, c.Count, c.Lower, c.Upper, c.Satisfied)
		}
	}
	fmt.Fprintf(&b, "\n## Suppression by attribute\n\n| attribute | cells | share |\n|---|---|---|\n")
	for _, a := range r.ByAttribute {
		fmt.Fprintf(&b, "| %s | %d | %.1f%% |\n", a.Attr, a.Suppressed, a.Fraction*100)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Write renders the report in the named format: "text", "markdown" or
// "json".
func (r *Report) Write(w io.Writer, format string) error {
	switch format {
	case "text", "":
		return r.WriteText(w)
	case "markdown", "md":
		return r.WriteMarkdown(w)
	case "json":
		return r.WriteJSON(w)
	default:
		return fmt.Errorf("report: unknown format %q (want text, markdown or json)", format)
	}
}
