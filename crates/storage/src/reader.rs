//! Deserialization: `ctxpref v1` text → logical components.

use std::io::BufRead;

use ctxpref_context::{ContextDescriptor, ContextEnvironment, ParameterDescriptor};
use ctxpref_core::ContextualDb;
use ctxpref_hierarchy::{Hierarchy, HierarchyBuilder};
use ctxpref_profile::{AttributeClause, ContextualPreference, ParamOrder, Profile};
use ctxpref_relation::{AttrType, CompareOp, Relation, Schema, Value};

use crate::escape::unescape;
use crate::{StorageError, HEADER};

/// Numbered, non-empty, non-comment lines.
struct Lines<I> {
    inner: I,
    line: usize,
    peeked: Option<(usize, String)>,
}

impl<I: Iterator<Item = std::io::Result<String>>> Lines<I> {
    fn new(inner: I) -> Self {
        Self {
            inner,
            line: 0,
            peeked: None,
        }
    }

    fn next_line(&mut self) -> Result<Option<(usize, String)>, StorageError> {
        if let Some(p) = self.peeked.take() {
            return Ok(Some(p));
        }
        loop {
            let Some(raw) = self.inner.next() else {
                return Ok(None);
            };
            self.line += 1;
            let raw = raw?;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Ok(Some((self.line, trimmed.to_string())));
        }
    }

    fn push_back(&mut self, item: (usize, String)) {
        self.peeked = Some(item);
    }
}

/// Consume the optional `checksum <hex>` line the file-level save
/// functions write after the header. Streaming readers skip it — the
/// checksum covers raw bytes, so only [`crate::load_database`] /
/// [`crate::load_multi_user`] (which see the whole file) verify it.
fn skip_checksum_line<I: Iterator<Item = std::io::Result<String>>>(
    lines: &mut Lines<I>,
) -> Result<(), StorageError> {
    if let Some((line, text)) = lines.next_line()? {
        if !text.starts_with("checksum ") {
            lines.push_back((line, text));
        }
    }
    Ok(())
}

fn untoken(line: usize, tok: &str) -> Result<String, StorageError> {
    unescape(tok).ok_or_else(|| StorageError::syntax(line, format!("bad escape in {tok:?}")))
}

fn parse_value(line: usize, tok: &str) -> Result<Value, StorageError> {
    let (tag, body) = tok
        .split_once(':')
        .ok_or_else(|| StorageError::syntax(line, format!("expected typed value, got {tok:?}")))?;
    match tag {
        "i" => body
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| StorageError::syntax(line, format!("bad int {body:?}"))),
        "f" => body
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| StorageError::syntax(line, format!("bad float {body:?}"))),
        "s" => Ok(Value::Str(untoken(line, body)?.into())),
        "b" => match body {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(StorageError::syntax(line, format!("bad bool {body:?}"))),
        },
        _ => Err(StorageError::syntax(
            line,
            format!("unknown value tag {tag:?}"),
        )),
    }
}

fn parse_op(line: usize, tok: &str) -> Result<CompareOp, StorageError> {
    Ok(match tok {
        "eq" => CompareOp::Eq,
        "ne" => CompareOp::Ne,
        "lt" => CompareOp::Lt,
        "le" => CompareOp::Le,
        "gt" => CompareOp::Gt,
        "ge" => CompareOp::Ge,
        _ => {
            return Err(StorageError::syntax(
                line,
                format!("unknown operator {tok:?}"),
            ))
        }
    })
}

fn parse_type(line: usize, tok: &str) -> Result<AttrType, StorageError> {
    Ok(match tok {
        "int" => AttrType::Int,
        "float" => AttrType::Float,
        "str" => AttrType::Str,
        "bool" => AttrType::Bool,
        _ => return Err(StorageError::syntax(line, format!("unknown type {tok:?}"))),
    })
}

/// Read one `hierarchy … end` section; the `hierarchy <name>` line must
/// already have been consumed and is passed via `name`.
fn read_hierarchy_body<I: Iterator<Item = std::io::Result<String>>>(
    lines: &mut Lines<I>,
    header_line: usize,
    name: &str,
) -> Result<Hierarchy, StorageError> {
    let Some((lvl_line, levels_line)) = lines.next_line()? else {
        return Err(StorageError::syntax(
            header_line,
            "unterminated hierarchy section",
        ));
    };
    let mut toks = levels_line.split_whitespace();
    if toks.next() != Some("levels") {
        return Err(StorageError::syntax(lvl_line, "expected `levels …`"));
    }
    let level_names: Vec<String> = toks
        .map(|t| untoken(lvl_line, t))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&str> = level_names.iter().map(String::as_str).collect();
    let mut b = HierarchyBuilder::new(name, &refs);

    loop {
        let Some((line, text)) = lines.next_line()? else {
            return Err(StorageError::syntax(
                header_line,
                "unterminated hierarchy section",
            ));
        };
        if text == "end" {
            break;
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["v", level, value, parent] => {
                let level = untoken(line, level)?;
                let value = untoken(line, value)?;
                let parent = if *parent == "-" {
                    None
                } else {
                    Some(untoken(line, parent)?)
                };
                b.add(&level, &value, parent.as_deref())
                    .map_err(|e| StorageError::model(line, e))?;
            }
            _ => {
                return Err(StorageError::syntax(
                    line,
                    "expected `v <level> <value> <parent|->`",
                ))
            }
        }
    }
    b.build().map_err(|e| StorageError::model(header_line, e))
}

/// Read one standalone hierarchy (starting at its `hierarchy` line).
pub fn read_hierarchy(r: impl BufRead) -> Result<Hierarchy, StorageError> {
    let mut lines = Lines::new(r.lines());
    let Some((line, text)) = lines.next_line()? else {
        return Err(StorageError::syntax(0, "empty input"));
    };
    let name = text
        .strip_prefix("hierarchy ")
        .ok_or_else(|| StorageError::syntax(line, "expected `hierarchy <name>`"))?;
    let name = untoken(line, name.trim())?;
    read_hierarchy_body(&mut lines, line, &name)
}

fn read_relation_body<I: Iterator<Item = std::io::Result<String>>>(
    lines: &mut Lines<I>,
    header_line: usize,
    name: &str,
) -> Result<Relation, StorageError> {
    let mut attrs: Vec<(String, AttrType)> = Vec::new();
    let mut rel: Option<Relation> = None;
    loop {
        let Some((line, text)) = lines.next_line()? else {
            return Err(StorageError::syntax(
                header_line,
                "unterminated relation section",
            ));
        };
        if text == "end" {
            break;
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.as_slice() {
            ["attr", aname, ty] => {
                if rel.is_some() {
                    return Err(StorageError::syntax(line, "attr after first tuple"));
                }
                attrs.push((untoken(line, aname)?, parse_type(line, ty)?));
            }
            ["t", rest @ ..] => {
                let r = match rel.as_mut() {
                    Some(r) => r,
                    None => {
                        let borrowed: Vec<(&str, AttrType)> =
                            attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                        let schema =
                            Schema::new(&borrowed).map_err(|e| StorageError::model(line, e))?;
                        rel.insert(Relation::new(name, schema))
                    }
                };
                let values: Vec<Value> = rest
                    .iter()
                    .map(|t| parse_value(line, t))
                    .collect::<Result<_, _>>()?;
                r.insert(values).map_err(|e| StorageError::model(line, e))?;
            }
            _ => return Err(StorageError::syntax(line, "expected `attr …` or `t …`")),
        }
    }
    rel.map(Ok).unwrap_or_else(|| {
        let borrowed: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Schema::new(&borrowed)
            .map(|s| Relation::new(name, s))
            .map_err(|e| StorageError::model(header_line, e))
    })
}

/// Read one standalone relation (starting at its `relation` line).
pub fn read_relation(r: impl BufRead) -> Result<Relation, StorageError> {
    let mut lines = Lines::new(r.lines());
    let Some((line, text)) = lines.next_line()? else {
        return Err(StorageError::syntax(0, "empty input"));
    };
    let name = text
        .strip_prefix("relation ")
        .ok_or_else(|| StorageError::syntax(line, "expected `relation <name>`"))?;
    let name = untoken(line, name.trim())?;
    read_relation_body(&mut lines, line, &name)
}

fn parse_pref(
    line: usize,
    toks: &[&str],
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<ContextualPreference, StorageError> {
    // pref <score> <attr> <op> <value> (<param> (eq v | in n v… | range a b))*
    if toks.len() < 4 {
        return Err(StorageError::syntax(line, "truncated pref line"));
    }
    let score: f64 = toks[0]
        .parse()
        .map_err(|_| StorageError::syntax(line, format!("bad score {:?}", toks[0])))?;
    let attr_name = untoken(line, toks[1])?;
    let attr = rel
        .schema()
        .require_attr(&attr_name)
        .map_err(|e| StorageError::model(line, e))?;
    let op = parse_op(line, toks[2])?;
    let value = parse_value(line, toks[3])?;

    // A clause spends at least three tokens (name, kind, value), an
    // `eq` clause exactly three: an all-`eq` descriptor fills this.
    let mut clauses = Vec::with_capacity((toks.len() - 4) / 3);
    let mut i = 4;
    while i < toks.len() {
        let pname = untoken(line, toks[i])?;
        let p = env
            .require_param(&pname)
            .map_err(|e| StorageError::model(line, e))?;
        let h = env.hierarchy(p);
        let lookup = |t: &str| -> Result<ctxpref_context::CtxValue, StorageError> {
            let n = untoken(line, t)?;
            h.lookup(&n).ok_or_else(|| {
                StorageError::model(line, format!("unknown value {n:?} for {pname:?}"))
            })
        };
        i += 1;
        let kind = toks
            .get(i)
            .ok_or_else(|| StorageError::syntax(line, "truncated clause"))?;
        i += 1;
        let pd = match *kind {
            "eq" => {
                let v = lookup(
                    toks.get(i)
                        .ok_or_else(|| StorageError::syntax(line, "missing value"))?,
                )?;
                i += 1;
                ParameterDescriptor::Eq(v)
            }
            "in" => {
                let n: usize = toks
                    .get(i)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| StorageError::syntax(line, "bad set length"))?;
                i += 1;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(lookup(
                        toks.get(i)
                            .ok_or_else(|| StorageError::syntax(line, "truncated set"))?,
                    )?);
                    i += 1;
                }
                ParameterDescriptor::In(vs)
            }
            "range" => {
                let a = lookup(
                    toks.get(i)
                        .ok_or_else(|| StorageError::syntax(line, "missing range lo"))?,
                )?;
                let b = lookup(
                    toks.get(i + 1)
                        .ok_or_else(|| StorageError::syntax(line, "missing range hi"))?,
                )?;
                i += 2;
                ParameterDescriptor::Range(a, b)
            }
            other => {
                return Err(StorageError::syntax(
                    line,
                    format!("unknown clause kind {other:?}"),
                ))
            }
        };
        clauses.push((p, pd));
    }
    let cod = ContextDescriptor::from_clauses(clauses);
    ContextualPreference::new(cod, AttributeClause::new(attr, op, value), score)
        .map_err(|e| StorageError::model(line, e))
}

/// Read one standalone profile section (starting at its `profile` line)
/// against an existing environment and relation.
pub fn read_profile(
    r: impl BufRead,
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Profile, StorageError> {
    let mut lines = Lines::new(r.lines());
    let Some((line, text)) = lines.next_line()? else {
        return Err(StorageError::syntax(0, "empty input"));
    };
    if text != "profile" {
        return Err(StorageError::syntax(line, "expected `profile`"));
    }
    read_profile_body(&mut lines, line, env, rel)
}

fn read_profile_body<I: Iterator<Item = std::io::Result<String>>>(
    lines: &mut Lines<I>,
    header_line: usize,
    env: &ContextEnvironment,
    rel: &Relation,
) -> Result<Profile, StorageError> {
    let mut profile = Profile::new(env.clone());
    loop {
        let Some((line, text)) = lines.next_line()? else {
            return Err(StorageError::syntax(
                header_line,
                "unterminated profile section",
            ));
        };
        if text == "end" {
            break;
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.split_first() {
            Some((&"pref", rest)) => {
                let pref = parse_pref(line, rest, env, rel)?;
                // `insert` both checks Definition-6 conflicts and
                // detects exact duplicates. Duplicates are legal in a
                // logical profile (users may restate preferences), so a
                // faithful reader preserves them.
                match profile.insert(pref.clone()) {
                    Ok(true) => {}
                    Ok(false) => profile.insert_unchecked(pref),
                    Err(e) => return Err(StorageError::model(line, e)),
                }
            }
            _ => return Err(StorageError::syntax(line, "expected `pref …`")),
        }
    }
    Ok(profile)
}

/// Read a multi-user database written by [`crate::write_multi_user`].
pub fn read_multi_user(r: impl BufRead) -> Result<ctxpref_core::MultiUserDb, StorageError> {
    let mut lines = Lines::new(r.lines());
    match lines.next_line()? {
        Some((_, h)) if h == HEADER => {}
        Some((_, h)) => return Err(StorageError::BadHeader(h)),
        None => return Err(StorageError::BadHeader(String::new())),
    }
    skip_checksum_line(&mut lines)?;
    let mut hierarchies: Vec<Hierarchy> = Vec::new();
    let mut relation: Option<Relation> = None;
    let mut cache = 0usize;
    let mut pending_user: Option<(usize, String)> = None;
    while let Some((line, text)) = lines.next_line()? {
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.split_first() {
            Some((&"hierarchy", [name])) => {
                let name = untoken(line, name)?;
                hierarchies.push(read_hierarchy_body(&mut lines, line, &name)?);
            }
            Some((&"relation", [name])) => {
                let name = untoken(line, name)?;
                relation = Some(read_relation_body(&mut lines, line, &name)?);
            }
            Some((&"cache", [n])) => {
                cache = n
                    .parse()
                    .map_err(|_| StorageError::syntax(line, "bad cache capacity"))?;
            }
            Some((&"user", [name])) => {
                pending_user = Some((line, untoken(line, name)?));
                break;
            }
            _ => {
                return Err(StorageError::syntax(
                    line,
                    format!("unexpected line {text:?}"),
                ))
            }
        }
    }
    let env =
        ContextEnvironment::new(hierarchies).map_err(|e| StorageError::model(lines.line, e))?;
    let relation =
        relation.ok_or_else(|| StorageError::syntax(lines.line, "missing relation section"))?;
    let mut db = ctxpref_core::MultiUserDb::new(env.clone(), relation, cache);

    while let Some((uline, user)) = pending_user.take() {
        // Expect a `profile` header then the section body.
        let Some((pline, ptext)) = lines.next_line()? else {
            return Err(StorageError::syntax(
                uline,
                "user without a profile section",
            ));
        };
        if ptext != "profile" {
            return Err(StorageError::syntax(
                pline,
                "expected `profile` after `user`",
            ));
        }
        let profile = read_profile_body(&mut lines, pline, &env, db.relation())?;
        db.add_user_with_profile(&user, profile)
            .map_err(|e| StorageError::model(uline, e))?;
        // Next `user` marker or EOF.
        match lines.next_line()? {
            None => break,
            Some((line, text)) => {
                let toks: Vec<&str> = text.split_whitespace().collect();
                match toks.split_first() {
                    Some((&"user", [name])) => {
                        pending_user = Some((line, untoken(line, name)?));
                    }
                    _ => {
                        return Err(StorageError::syntax(
                            line,
                            format!("expected `user …` or end of file, got {text:?}"),
                        ))
                    }
                }
            }
        }
    }
    Ok(db)
}

/// Read a whole database written by [`crate::write_database`].
pub fn read_database(r: impl BufRead) -> Result<ContextualDb, StorageError> {
    let mut lines = Lines::new(r.lines());
    match lines.next_line()? {
        Some((_, h)) if h == HEADER => {}
        Some((_, h)) => return Err(StorageError::BadHeader(h)),
        None => return Err(StorageError::BadHeader(String::new())),
    }
    skip_checksum_line(&mut lines)?;

    let mut hierarchies: Vec<Hierarchy> = Vec::new();
    let mut relation: Option<Relation> = None;
    let mut order_names: Option<(usize, Vec<String>)> = None;
    let mut cache = 0usize;
    let profile_line;

    // First pass: sections up to (and including) `profile`, which needs
    // the environment, so it is parsed after the env is assembled.
    loop {
        let Some((line, text)) = lines.next_line()? else {
            return Err(StorageError::syntax(lines.line, "missing profile section"));
        };
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks.split_first() {
            Some((&"hierarchy", [name])) => {
                let name = untoken(line, name)?;
                hierarchies.push(read_hierarchy_body(&mut lines, line, &name)?);
            }
            Some((&"relation", [name])) => {
                let name = untoken(line, name)?;
                relation = Some(read_relation_body(&mut lines, line, &name)?);
            }
            Some((&"order", names)) => {
                order_names = Some((
                    line,
                    names
                        .iter()
                        .map(|t| untoken(line, t))
                        .collect::<Result<_, _>>()?,
                ));
            }
            Some((&"cache", [n])) => {
                cache = n
                    .parse()
                    .map_err(|_| StorageError::syntax(line, "bad cache capacity"))?;
            }
            Some((&"profile", [])) => {
                profile_line = line;
                break;
            }
            _ => {
                return Err(StorageError::syntax(
                    line,
                    format!("unexpected line {text:?}"),
                ))
            }
        }
    }
    let env =
        ContextEnvironment::new(hierarchies).map_err(|e| StorageError::model(lines.line, e))?;
    let relation =
        relation.ok_or_else(|| StorageError::syntax(lines.line, "missing relation section"))?;

    let profile = read_profile_body(&mut lines, profile_line, &env, &relation)?;

    // Trailing garbage?
    if let Some((line, text)) = lines.next_line()? {
        lines.push_back((line, text.clone()));
        return Err(StorageError::syntax(
            line,
            format!("trailing content {text:?}"),
        ));
    }

    let mut builder = ContextualDb::builder().env(env.clone()).relation(relation);
    if let Some((line, names)) = order_names {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let order = ParamOrder::by_names(&env, &refs).map_err(|e| StorageError::model(line, e))?;
        builder = builder.order(order);
    }
    if cache > 0 {
        builder = builder.cache_capacity(cache);
    }
    let mut db = builder.build().map_err(|e| StorageError::model(0, e))?;
    for pref in profile.iter() {
        db.insert_preference(pref.clone())
            .map_err(|e| StorageError::model(0, e))?;
    }
    Ok(db)
}
