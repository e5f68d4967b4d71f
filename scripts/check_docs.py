#!/usr/bin/env python3
"""Markdown lint + internal-link checker for the repo's documentation.

Keeps README/ROADMAP/docs/ from rotting silently: a renamed file, a
deleted heading, or an unbalanced code fence fails CI instead of shipping
a dead link. Checked, per file:

  1. internal links — every non-external `[text](target)` target must
     exist on disk (resolved relative to the file; `#fragment`s are
     stripped first);
  2. anchors — a link to `file#heading` (or a same-file `#heading`) must
     name a real heading in the target file, using GitHub's slug rules
     (lowercase, spaces → dashes, punctuation dropped);
  3. code fences — every ``` fence must be closed (an unbalanced fence
     swallows the rest of the document in rendered views);
  4. trailing whitespace — disallowed outside code fences (it renders as
     a hard break on GitHub, almost always unintentionally).

With --comments, the comments of every C/C++ source file under the
directories named after it are scanned too: each `Name.md` (or
`path/Name.md`) they mention must resolve to a file — relative to the
repository root, to the source file's directory, or, for a bare name, to
a Markdown file at the root or in docs/. Code comments citing a design
document that does not exist fail CI the same way a dead link does.

External links (http://, https://, mailto:) are NOT fetched — network
reachability is not this script's business.

Usage: check_docs.py <file-or-dir> [...] [--comments <dir> [...]]
       (directories are scanned recursively for *.md; --comments
       directories for *.h, *.cc, *.cpp)
"""

import os
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
MD_MENTION_RE = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")
CODE_EXTENSIONS = (".h", ".cc", ".cpp")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
EXTERNAL = ("http://", "https://", "mailto:")


def github_slug(heading):
    """GitHub's anchor slug: lowercase, strip punctuation, spaces→dashes.
    Underscores survive (GitHub keeps them: `edge_recycle_uses` slugs to
    edge_recycle_uses); backticks/asterisks are formatting and drop."""
    text = re.sub(r"[`*]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def parse(path):
    """Returns (links, slugs, errors) for one markdown file. Links and the
    lint checks skip fenced code blocks; an unclosed fence is an error."""
    links, slugs, errors = [], set(), []
    in_fence = False
    fence_line = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.rstrip("\n")
            if stripped.lstrip().startswith("```"):
                in_fence = not in_fence
                fence_line = lineno
                continue
            if in_fence:
                continue
            if stripped != stripped.rstrip():
                errors.append(f"{path}:{lineno}: trailing whitespace")
            m = HEADING_RE.match(stripped)
            if m:
                slugs.add(github_slug(m.group(2)))
            for target in LINK_RE.findall(stripped):
                links.append((lineno, target))
    if in_fence:
        errors.append(f"{path}:{fence_line}: unclosed code fence")
    return links, slugs, errors


def comments(path):
    """Yields (lineno, text) for every // and /* */ comment in a C/C++
    source, skipping string and character literals."""
    with open(path, encoding="utf-8") as f:
        src = f.read()
    i, line, n = 0, 1, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
        elif c in "\"'":
            j = i + 1
            while j < n and src[j] != c and src[j] != "\n":
                j += 2 if src[j] == "\\" else 1
            i = j
        elif src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            yield line, src[i + 2:j]
            i = j
            continue
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j
            for k, text in enumerate(src[i + 2:j].split("\n")):
                yield line + k, text
            line += src.count("\n", i, j)
            i = j + 2
            continue
        i += 1


def check_comment_mentions(dirs):
    """Every `Name.md` a source comment mentions must exist."""
    bare = {
        n
        for d in (ROOT, os.path.join(ROOT, "docs"))
        if os.path.isdir(d)
        for n in os.listdir(d)
        if n.endswith(".md")
    }
    errors = []
    for top in dirs:
        for root, _dirs, names in os.walk(top):
            for name in sorted(names):
                if not name.endswith(CODE_EXTENSIONS):
                    continue
                path = os.path.join(root, name)
                for lineno, text in comments(path):
                    for mention in MD_MENTION_RE.findall(text):
                        candidates = [
                            os.path.join(ROOT, mention),
                            os.path.join(root, mention),
                        ]
                        if any(os.path.exists(c) for c in candidates):
                            continue
                        if "/" not in mention and mention in bare:
                            continue
                        errors.append(f"{path}:{lineno}: comment cites "
                                      f"'{mention}', which does not exist")
    return errors


def main():
    argv = sys.argv[1:]
    comment_dirs = []
    if "--comments" in argv:
        k = argv.index("--comments")
        argv, comment_dirs = argv[:k], argv[k + 1:]
    if not argv:
        raise SystemExit(__doc__)
    files = []
    for arg in argv:
        if os.path.isdir(arg):
            for root, _dirs, names in os.walk(arg):
                files.extend(
                    os.path.join(root, n) for n in names if n.endswith(".md")
                )
        else:
            files.append(arg)

    parsed = {}  # path -> (links, slugs)
    errors = []
    for path in sorted(set(files)):
        links, slugs, errs = parse(path)
        parsed[path] = (links, slugs)
        errors.extend(errs)

    def slugs_of(path):
        if path not in parsed:
            _links, slugs, errs = parse(path)
            parsed[path] = ([], slugs)
            errors.extend(errs)
        return parsed[path][1]

    for path, (links, _slugs) in sorted(parsed.items()):
        base = os.path.dirname(path)
        for lineno, target in links:
            if target.startswith(EXTERNAL):
                continue
            raw, _, fragment = target.partition("#")
            dest = os.path.normpath(os.path.join(base, raw)) if raw else path
            if not os.path.exists(dest):
                errors.append(f"{path}:{lineno}: broken link '{target}' "
                              f"({dest} does not exist)")
                continue
            if fragment and dest.endswith(".md"):
                if fragment not in slugs_of(dest):
                    errors.append(f"{path}:{lineno}: broken anchor "
                                  f"'{target}' (no heading '#{fragment}' "
                                  f"in {dest})")

    errors.extend(check_comment_mentions(comment_dirs))

    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for e in errors:
            print(f"  - {e}")
        return 1
    scanned = (f"; comments under {', '.join(comment_dirs)} cite only "
               f"existing docs" if comment_dirs else "")
    print(f"docs check OK: {len(parsed)} file(s), all internal links and "
          f"anchors resolve{scanned}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
