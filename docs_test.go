package graf_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"graf/internal/bench"
)

// docs are the documents every change reads, and whose citations of tests
// and experiments this file checks.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}

var (
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	testCite    = regexp.MustCompile(`\b(?:Test|Fuzz|Example)[A-Z_][A-Za-z0-9_]*`)
	expCite     = regexp.MustCompile(`grafbench\s+-exp\s+([A-Za-z0-9_-]+)`)
	sectionCite = regexp.MustCompile(`DESIGN\.md\s+§\s*(\d+[a-z]?)(?:\.(\d+))?`)
	heading     = regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `)
	// "Known deviation 2", "Known deviations 2 and 6", "Known deviations 2, 6 or 7".
	deviationCite = regexp.MustCompile(`Known deviations? (\d+(?:(?:, | and | or )\d+)*)`)
	deviationItem = regexp.MustCompile(`(?m)^(\d+)\. `)
	number        = regexp.MustCompile(`\d+`)
)

// TestDocsCiteOnlyWhatExists holds the documents to what the repository
// has: a test they name is declared in a _test.go file of the module or of
// the benchmark module, a grafbench -exp id is an experiment, a DESIGN.md §
// is one of its headings (§N.M: item M of section N's numbered list), and a
// Known deviation is one EXPERIMENTS.md lists.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	files := map[string]string{} // every .go and .md file, by path
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "out": // history, the benchmark's build cache, its run output
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	for path, text := range files {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllStringSubmatch(text, -1) {
				declared[m[1]] = true
			}
		}
	}
	experiments := map[string]bool{}
	for _, e := range bench.Experiments {
		experiments[e.ID] = true
	}
	for _, doc := range docs {
		text, ok := files[doc]
		if !ok {
			t.Fatalf("%s is missing", doc)
		}
		for _, m := range testCite.FindAllStringIndex(text, -1) {
			if name := text[m[0]:m[1]]; !declared[name] {
				t.Errorf("%s:%d cites %s, which no _test.go declares", doc, line(text, m[0]), name)
			}
		}
		for _, m := range expCite.FindAllStringSubmatchIndex(text, -1) {
			if id := text[m[2]:m[3]]; !experiments[id] {
				t.Errorf("%s:%d cites grafbench -exp %s, which is no experiment", doc, line(text, m[0]), id)
			}
		}
	}

	design := files["DESIGN.md"]
	sections := map[string]string{} // heading number -> the section's text
	hs := heading.FindAllStringSubmatchIndex(design, -1)
	for i, h := range hs {
		end := len(design)
		if i+1 < len(hs) {
			end = hs[i+1][0]
		}
		sections[design[h[2]:h[3]]] = design[h[1]:end]
	}
	deviations := map[string]bool{}
	experimentsDoc := files["EXPERIMENTS.md"]
	if i := strings.Index(experimentsDoc, "\n## Known deviations"); i >= 0 {
		for _, m := range deviationItem.FindAllStringSubmatch(experimentsDoc[i:], -1) {
			deviations[m[1]] = true
		}
	}
	for path, text := range files {
		for _, m := range sectionCite.FindAllStringSubmatchIndex(text, -1) {
			body, ok := sections[text[m[2]:m[3]]]
			if ok && m[4] >= 0 {
				ok = regexp.MustCompile(`(?m)^` + text[m[4]:m[5]] + `\. `).MatchString(body)
			}
			if !ok {
				t.Errorf("%s:%d cites %s, which is no DESIGN.md heading", path, line(text, m[0]), text[m[0]:m[1]])
			}
		}
		for _, m := range deviationCite.FindAllStringSubmatchIndex(text, -1) {
			for _, n := range number.FindAllString(text[m[2]:m[3]], -1) {
				if !deviations[n] {
					t.Errorf("%s:%d cites Known deviation %s, which EXPERIMENTS.md does not list", path, line(text, m[0]), n)
				}
			}
		}
	}
}

// line is the line of text that holds byte i.
func line(text string, i int) int {
	return strings.Count(text[:i], "\n") + 1
}
