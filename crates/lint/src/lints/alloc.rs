//! L4 — hot-path allocation: the kernel modules (`sparse_vec.rs`,
//! `dense_vec.rs`, `simd.rs`) sit inside the per-interaction inner loop,
//! and the zero-allocation property is load bearing — the alloc-counting
//! tests pin it down for the steady state.
//! `Vec::new`/`vec![...]`/`format!`/`.collect()`/`Box::new` in these files
//! either allocates on the hot path or is a cold-path exception that
//! deserves a justified allow-directive so the next reader knows which.

use super::{in_ranges, test_mod_ranges};
use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};

pub fn check(file: &str, tokens: &[Token]) -> Vec<Diagnostic> {
    let skip = test_mod_ranges(tokens);
    let mut diags = Vec::new();
    for i in 0..tokens.len() {
        if in_ranges(&skip, i) {
            continue;
        }
        let t = &tokens[i];
        let construct: Option<&str> = if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                // `Vec::new` / `Box::new`
                "Vec" | "Box"
                    if next_is(tokens, i + 1, "::") && next_ident_is(tokens, i + 2, "new") =>
                {
                    Some(if t.text == "Vec" {
                        "Vec::new"
                    } else {
                        "Box::new"
                    })
                }
                // `vec![...]` / `format!(...)`
                "vec" if next_is(tokens, i + 1, "!") => Some("vec!"),
                "format" if next_is(tokens, i + 1, "!") => Some("format!"),
                _ => None,
            }
        } else if t.is_punct(".")
            && next_ident_is(tokens, i + 1, "collect")
            && tokens.get(i + 2).is_some_and(|n| {
                n.is_punct("::") || (n.kind == TokenKind::OpenDelim && n.text == "(")
            })
        {
            Some(".collect()")
        } else {
            None
        };
        if let Some(construct) = construct {
            let line = if t.is_punct(".") {
                tokens[i + 1].line
            } else {
                t.line
            };
            diags.push(Diagnostic::new(
                "hot-path-alloc",
                file,
                line,
                format!(
                    "`{construct}` in a kernel module allocates; keep the per-interaction \
                     path allocation-free (reuse buffers / preallocate), or mark a cold path \
                     with `// tin-lint: allow(hot-path-alloc): <why>`"
                ),
            ));
        }
    }
    diags
}

fn next_is(tokens: &[Token], i: usize, punct: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(punct))
}

fn next_ident_is(tokens: &[Token], i: usize, ident: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_ident(ident))
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fires_on_each_construct() {
        for (src, construct) in [
            ("let v = Vec::new();", "Vec::new"),
            ("let v = vec![1, 2];", "vec!"),
            ("let s = format!(\"{x}\");", "format!"),
            ("let v: Vec<_> = it.collect();", ".collect()"),
            ("let v = it.collect::<Vec<_>>();", ".collect()"),
            ("let b = Box::new(x);", "Box::new"),
        ] {
            let d = check("x.rs", &lex(src));
            assert_eq!(d.len(), 1, "{src}");
            assert!(d[0].message.contains(construct), "{src}");
        }
    }

    #[test]
    fn clean_on_reuse_patterns() {
        for src in [
            "buf.clear(); buf.push(x);",
            "let v = Vec::with_capacity(n);",
            "out.extend_from_slice(&src);",
        ] {
            assert!(check("x.rs", &lex(src)).is_empty(), "{src}");
        }
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "mod tests { fn f() { let v = vec![1]; } }";
        assert!(check("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn collect_mention_without_call_is_fine() {
        // e.g. in an ident like `collected` or a path that is not a call.
        assert!(check("x.rs", &lex("let collected = 3;")).is_empty());
    }
}
