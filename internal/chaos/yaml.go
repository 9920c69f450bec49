package chaos

// A hand-written parser for the YAML subset the scenario files use — the
// repository takes no dependencies, and the subset is small: nested maps
// by indentation, "- " list items (inline-map items included), scalar
// "key: value" pairs, comments, and blank lines. Every scalar stays a
// string; decodeValue in scenario.go reads it by the type of the field it
// lands in (an integer, a float, a duration). Anchors, multi-line
// scalars, flow collections, and tabs are rejected.

import (
	"fmt"
	"strings"
)

// yamlLine is one significant (non-blank, non-comment) input line.
type yamlLine struct {
	num    int // 1-based source line number
	indent int // leading spaces
	text   string
}

// yamlParser walks the significant lines once, recursing by indentation.
type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseYAML parses src into the generic tree decodeValue consumes:
// map[string]any / []any / string.
func parseYAML(src []byte) (any, error) {
	p := &yamlParser{}
	for i, raw := range strings.Split(string(src), "\n") {
		if strings.ContainsRune(raw, '\t') {
			return nil, fmt.Errorf("line %d: tabs are not allowed (use spaces)", i+1)
		}
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		p.lines = append(p.lines, yamlLine{
			num:    i + 1,
			indent: len(line) - len(strings.TrimLeft(line, " ")),
			text:   trimmed,
		})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	return v, nil
}

// stripComment removes a trailing "#..." comment. The scenario grammar has
// no quoted strings containing '#', so a comment is any '#' at the start
// of the line or preceded by a space.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' && (i == 0 || line[i-1] == ' ') {
			return line[:i]
		}
	}
	return line
}

// parseBlock parses one block (map or list) whose entries sit at exactly
// the given indent.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("unexpected end of document")
	}
	if strings.HasPrefix(p.lines[p.pos].text, "- ") || p.lines[p.pos].text == "-" {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *yamlParser) parseMap(indent int) (map[string]any, error) {
	out := make(map[string]any)
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, fmt.Errorf("line %d: list item inside a map", l.num)
		}
		key, rest, ok := strings.Cut(l.text, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: expected \"key: value\"", l.num)
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("line %d: empty key", l.num)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		rest = strings.TrimSpace(rest)
		p.pos++
		if rest != "" {
			out[key] = unquote(rest)
			continue
		}
		// "key:" introduces a nested block at deeper indent (an empty
		// value at end-of-block is an error — the schema has no nulls).
		if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
			return nil, fmt.Errorf("line %d: key %q has no value", l.num, key)
		}
		child, err := p.parseBlock(p.lines[p.pos].indent)
		if err != nil {
			return nil, err
		}
		out[key] = child
	}
	return out, nil
}

func (p *yamlParser) parseList(indent int) ([]any, error) {
	var out []any
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			return nil, fmt.Errorf("line %d: expected a \"- \" list item", l.num)
		}
		item := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if item == "" {
			return nil, fmt.Errorf("line %d: empty list item", l.num)
		}
		if !strings.Contains(item, ":") {
			// Scalar item.
			p.pos++
			out = append(out, unquote(item))
			continue
		}
		// Inline-map item: "- key: value" starts a map whose further keys
		// sit at the column of "key" (indent + 2).
		p.lines[p.pos] = yamlLine{num: l.num, indent: indent + 2, text: item}
		m, err := p.parseMap(indent + 2)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// unquote strips one level of matching single or double quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
