//! Serialization: logical components → `ctxpref v1` text.

use std::io::Write;

use ctxpref_core::ContextualDb;
use ctxpref_hierarchy::{Hierarchy, LevelId};
use ctxpref_profile::Profile;
use ctxpref_relation::{AttrType, CompareOp, Relation, Value};

use crate::escape::escape;
use crate::{StorageError, HEADER};

fn value_token(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        // `{:?}` prints the shortest representation that round-trips.
        Value::Float(f) => format!("f:{f:?}"),
        Value::Str(s) => format!("s:{}", escape(s)),
        Value::Bool(b) => format!("b:{b}"),
    }
}

fn op_token(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "eq",
        CompareOp::Ne => "ne",
        CompareOp::Lt => "lt",
        CompareOp::Le => "le",
        CompareOp::Gt => "gt",
        CompareOp::Ge => "ge",
    }
}

fn type_token(t: AttrType) -> &'static str {
    match t {
        AttrType::Int => "int",
        AttrType::Float => "float",
        AttrType::Str => "str",
        AttrType::Bool => "bool",
    }
}

/// Write one hierarchy as a `hierarchy … end` section.
pub fn write_hierarchy(w: &mut impl Write, h: &Hierarchy) -> Result<(), StorageError> {
    writeln!(w, "hierarchy {}", escape(h.name()))?;
    let user_levels: Vec<String> = (0..h.level_count() - 1)
        .map(|l| escape(h.level_name(LevelId(l as u8))))
        .collect();
    writeln!(w, "levels {}", user_levels.join(" "))?;
    // Top-down so parents exist before children in a streaming reader
    // (the builder tolerates any order, but top-down reads naturally).
    for lvl in (0..h.level_count() - 1).rev() {
        let level = LevelId(lvl as u8);
        for &v in h.domain(level) {
            let parent = match h.parent(v) {
                Some(p) if p != h.all_value() => escape(h.value_name(p)),
                _ => "-".to_string(),
            };
            writeln!(
                w,
                "v {} {} {parent}",
                escape(h.level_name(level)),
                escape(h.value_name(v))
            )?;
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

/// Write a relation as a `relation … end` section.
pub fn write_relation(w: &mut impl Write, rel: &Relation) -> Result<(), StorageError> {
    writeln!(w, "relation {}", escape(rel.name()))?;
    for (_, name, ty) in rel.schema().iter() {
        writeln!(w, "attr {} {}", escape(name), type_token(ty))?;
    }
    for t in rel.tuples() {
        let fields: Vec<String> = t.values().iter().map(value_token).collect();
        writeln!(w, "t {}", fields.join(" "))?;
    }
    writeln!(w, "end")?;
    Ok(())
}

/// Serialize one preference as the token list of a `pref` line (minus
/// the leading keyword): `<score> <attr> <op> <value>` followed by the
/// descriptor's structural clauses (`eq` / `in` / `range` with value
/// names, so arbitrary names round-trip without quoting rules).
fn pref_tokens(
    pref: &ctxpref_profile::ContextualPreference,
    env: &ctxpref_context::ContextEnvironment,
    rel: &Relation,
) -> String {
    let clause = pref.clause();
    let mut line = format!(
        "{:?} {} {} {}",
        pref.score(),
        escape(rel.schema().attr_name(clause.attr)),
        op_token(clause.op),
        value_token(&clause.value),
    );
    for (p, pd) in pref.descriptor().clauses() {
        let h = env.hierarchy(p);
        line.push_str(&format!(" {}", escape(h.name())));
        match pd {
            ctxpref_context::ParameterDescriptor::Eq(v) => {
                line.push_str(&format!(" eq {}", escape(h.value_name(*v))));
            }
            ctxpref_context::ParameterDescriptor::In(vs) => {
                line.push_str(&format!(" in {}", vs.len()));
                for v in vs {
                    line.push_str(&format!(" {}", escape(h.value_name(*v))));
                }
            }
            ctxpref_context::ParameterDescriptor::Range(a, b) => {
                line.push_str(&format!(
                    " range {} {}",
                    escape(h.value_name(*a)),
                    escape(h.value_name(*b))
                ));
            }
        }
    }
    line
}

/// Write a profile as a `profile … end` section. Descriptor clauses are
/// serialized structurally (`eq` / `in` / `range` with value names) so
/// arbitrary names round-trip without quoting rules.
pub fn write_profile(
    w: &mut impl Write,
    profile: &Profile,
    rel: &Relation,
) -> Result<(), StorageError> {
    let env = profile.env();
    writeln!(w, "profile")?;
    for pref in profile.iter() {
        writeln!(w, "pref {}", pref_tokens(pref, env, rel))?;
    }
    writeln!(w, "end")?;
    Ok(())
}

/// Write a multi-user database: header, hierarchies, relation, cache
/// setting, then one `user <name>` marker + profile section per user
/// (sorted by name for deterministic output).
pub fn write_multi_user(
    w: &mut impl Write,
    db: &ctxpref_core::MultiUserDb,
) -> Result<(), StorageError> {
    writeln!(w, "{HEADER}")?;
    write_multi_user_body(w, db)
}

/// Everything after the header line ([`crate::save_multi_user`] inserts
/// a checksum line between header and body).
pub(crate) fn write_multi_user_body(
    w: &mut impl Write,
    db: &ctxpref_core::MultiUserDb,
) -> Result<(), StorageError> {
    for (_, h) in db.env().iter() {
        write_hierarchy(w, h)?;
    }
    write_relation(w, db.relation())?;
    if db.cache_capacity() > 0 {
        writeln!(w, "cache {}", db.cache_capacity())?;
    }
    for name in db.users_sorted() {
        writeln!(w, "user {}", escape(name))?;
        let profile = db.profile(name).expect("users_sorted lists existing users");
        write_profile(w, profile, db.relation())?;
    }
    Ok(())
}

/// Write a whole database: header, hierarchies, relation, tree order,
/// cache setting, profile.
pub fn write_database(w: &mut impl Write, db: &ContextualDb) -> Result<(), StorageError> {
    writeln!(w, "{HEADER}")?;
    write_database_body(w, db)
}

/// Everything after the header line ([`crate::save_database`] inserts a
/// checksum line between header and body).
pub(crate) fn write_database_body(
    w: &mut impl Write,
    db: &ContextualDb,
) -> Result<(), StorageError> {
    for (_, h) in db.env().iter() {
        write_hierarchy(w, h)?;
    }
    write_relation(w, db.relation())?;
    let order: Vec<String> = db
        .tree()
        .order()
        .params()
        .iter()
        .map(|&p| escape(db.env().hierarchy(p).name()))
        .collect();
    writeln!(w, "order {}", order.join(" "))?;
    if let Some(stats) = db.cache_stats() {
        let _ = stats;
        writeln!(w, "cache {}", db.cache_capacity())?;
    }
    write_profile(w, db.profile(), db.relation())?;
    Ok(())
}
