package stats

import (
	"fmt"
)

// Value returns the current value.
func (w *TimeWeighted) Value() float64 { return w.value }

// Len returns the number of stored points.
func (s *Series) Len() int { return len(s.T) }

// At returns point i.
func (s *Series) At(i int) (t, v float64) { return s.T[i], s.V[i] }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatProb(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}
