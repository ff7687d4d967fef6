//! The type system of the fixed-point calculus.
//!
//! Types describe the *shape* of the finite domains relations range over.
//! Everything bottoms out in bits:
//!
//! * [`Type::Bool`] — one bit;
//! * [`Type::Range`] — an integer in `0..n`, bit-encoded (LSB first) with an
//!   implicit domain constraint `value < n`;
//! * [`Type::Bits`] — a raw vector of `n` independent bits (used for local /
//!   global variable valuations of Boolean programs);
//! * [`Type::Named`] — a reference to a previously declared type;
//! * [`Type::Struct`] — a record of named fields.
//!
//! Named types double as *channels* for the BDD variable allocator: two
//! values of the same named type are interleaved bit-by-bit in the variable
//! order so that equalities, summaries and renames between them stay small
//! (see `alloc.rs`).

use std::collections::BTreeMap;
use std::fmt;

/// A type expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// A single bit.
    Bool,
    /// An integer in `0..n` (`n ≥ 1`), bit-encoded LSB-first.
    Range(u64),
    /// A vector of `n` independent bits.
    Bits(u32),
    /// A reference to a declared type by name.
    Named(String),
    /// A record; field order is significant (it fixes the leaf layout).
    Struct(Vec<(String, Type)>),
}

impl Type {
    /// Convenience constructor for [`Type::Named`].
    pub fn named(name: impl Into<String>) -> Type {
        Type::Named(name.into())
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Range(n) => write!(f, "range {n}"),
            Type::Bits(n) => write!(f, "bits {n}"),
            Type::Named(name) => write!(f, "{name}"),
            Type::Struct(fields) => {
                write!(f, "struct {{ ")?;
                for (i, (name, ty)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {ty}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

/// Errors raised while declaring or resolving types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Reference to a type that has not been declared.
    Unknown(String),
    /// A type name was declared twice.
    Duplicate(String),
    /// `range 0` or another degenerate shape.
    Degenerate(String),
    /// A struct has two fields with the same name.
    DuplicateField { ty: String, field: String },
    /// A type wider than [`MAX_TYPE_BITS`] bits.
    TooWide(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Unknown(n) => write!(f, "unknown type `{n}`"),
            TypeError::Duplicate(n) => write!(f, "type `{n}` declared twice"),
            TypeError::Degenerate(n) => write!(f, "degenerate type: {n}"),
            TypeError::DuplicateField { ty, field } => {
                write!(f, "duplicate field `{field}` in type `{ty}`")
            }
            TypeError::TooWide(n) => write!(f, "type `{n}` is wider than {MAX_TYPE_BITS} bits"),
        }
    }
}

impl std::error::Error for TypeError {}

/// One primitive (bit-vector) leaf of a flattened type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    /// Access path from the root value, e.g. `["ENTRY_CG"]` or `[]` for a
    /// primitive type. Nested structs yield multi-segment paths.
    pub path: Vec<String>,
    /// Allocation channel: the *named* type of this leaf if it has one, or a
    /// structural key (`"bool"`, `"bits5"`, `"range17"`).
    pub channel: String,
    /// Number of bits.
    pub width: u32,
    /// `Some(n)` when the leaf is a `range n` value (domain constraint).
    pub bound: Option<u64>,
}

/// The widest type [`TypeTable::declare`] accepts, in bits. Every bit of
/// a type becomes one BDD variable per instance of it, so an unbounded
/// width turns a one-line declaration into an allocation the solver cannot
/// make. The widest shipped or benchmark system declares 66 bits.
pub const MAX_TYPE_BITS: u32 = 1 << 14;

/// The table of declared types.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    decls: BTreeMap<String, Type>,
    order: Vec<String>,
}

/// Number of bits needed to encode values `0..n`.
pub fn range_width(n: u64) -> u32 {
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `name` as an alias for `ty`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Duplicate`] if the name is taken,
    /// [`TypeError::Unknown`] if `ty` references an undeclared name,
    /// [`TypeError::Degenerate`] for empty shapes (`range 0`, `bits 0`,
    /// empty structs), and [`TypeError::TooWide`] for a type wider than
    /// [`MAX_TYPE_BITS`].
    pub fn declare(&mut self, name: impl Into<String>, ty: Type) -> Result<(), TypeError> {
        let name = name.into();
        if self.decls.contains_key(&name) {
            return Err(TypeError::Duplicate(name));
        }
        self.validate(&name, &ty)?;
        let mut bits = 0u64;
        if !self.add_width(&ty, &mut bits) {
            return Err(TypeError::TooWide(name));
        }
        self.order.push(name.clone());
        self.decls.insert(name, ty);
        Ok(())
    }

    fn validate(&self, name: &str, ty: &Type) -> Result<(), TypeError> {
        match ty {
            Type::Bool => Ok(()),
            Type::Range(n) => {
                if *n == 0 {
                    Err(TypeError::Degenerate(format!("range 0 in `{name}`")))
                } else {
                    Ok(())
                }
            }
            Type::Bits(n) => {
                if *n == 0 {
                    Err(TypeError::Degenerate(format!("bits 0 in `{name}`")))
                } else {
                    Ok(())
                }
            }
            Type::Named(other) => {
                if self.decls.contains_key(other) {
                    Ok(())
                } else {
                    Err(TypeError::Unknown(other.clone()))
                }
            }
            Type::Struct(fields) => {
                if fields.is_empty() {
                    return Err(TypeError::Degenerate(format!("empty struct `{name}`")));
                }
                let mut seen = std::collections::HashSet::new();
                for (fname, fty) in fields {
                    if !seen.insert(fname.clone()) {
                        return Err(TypeError::DuplicateField {
                            ty: name.to_string(),
                            field: fname.clone(),
                        });
                    }
                    self.validate(name, fty)?;
                }
                Ok(())
            }
        }
    }

    /// Adds the width of the validated type `ty` to `bits`; `false` as soon
    /// as the sum passes [`MAX_TYPE_BITS`]. Every leaf adds at least one
    /// bit, so at most `MAX_TYPE_BITS + 1` leaves are visited.
    fn add_width(&self, ty: &Type, bits: &mut u64) -> bool {
        match ty {
            Type::Bool => *bits += 1,
            Type::Range(n) => *bits += u64::from(range_width(*n)),
            Type::Bits(n) => *bits += u64::from(*n),
            Type::Named(n) => return self.get(n).is_some_and(|t| self.add_width(t, bits)),
            Type::Struct(fields) => {
                return fields.iter().all(|(_, f)| self.add_width(f, bits));
            }
        }
        *bits <= u64::from(MAX_TYPE_BITS)
    }

    /// Looks up a declared type.
    pub fn get(&self, name: &str) -> Option<&Type> {
        self.decls.get(name)
    }

    /// Declared type names, in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }

    /// Resolves `Named` references down to a structural type.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Unknown`] for undeclared names.
    pub fn resolve<'a>(&'a self, ty: &'a Type) -> Result<&'a Type, TypeError> {
        let mut cur = ty;
        loop {
            match cur {
                Type::Named(n) => {
                    cur = self.get(n).ok_or_else(|| TypeError::Unknown(n.clone()))?;
                }
                other => return Ok(other),
            }
        }
    }

    /// Flattens `ty` into its primitive leaves, in field order.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Unknown`] for undeclared names.
    pub fn flatten(&self, ty: &Type) -> Result<Vec<Leaf>, TypeError> {
        let mut leaves = Vec::new();
        self.flatten_rec(ty, &mut Vec::new(), None, &mut leaves)?;
        Ok(leaves)
    }

    fn flatten_rec(
        &self,
        ty: &Type,
        path: &mut Vec<String>,
        channel_hint: Option<&str>,
        out: &mut Vec<Leaf>,
    ) -> Result<(), TypeError> {
        match ty {
            Type::Bool => {
                out.push(Leaf {
                    path: path.clone(),
                    channel: channel_hint.unwrap_or("bool").to_string(),
                    width: 1,
                    bound: None,
                });
                Ok(())
            }
            Type::Range(n) => {
                out.push(Leaf {
                    path: path.clone(),
                    channel: channel_hint.map(str::to_string).unwrap_or(format!("range{n}")),
                    width: range_width(*n),
                    bound: Some(*n),
                });
                Ok(())
            }
            Type::Bits(n) => {
                out.push(Leaf {
                    path: path.clone(),
                    channel: channel_hint.map(str::to_string).unwrap_or(format!("bits{n}")),
                    width: *n,
                    bound: None,
                });
                Ok(())
            }
            Type::Named(name) => {
                let inner = self.get(name).ok_or_else(|| TypeError::Unknown(name.clone()))?;
                // The named type becomes the allocation channel for its
                // leaves, unless it expands to a struct (whose fields then
                // pick their own channels).
                match inner {
                    Type::Struct(_) => self.flatten_rec(inner, path, None, out),
                    _ => self.flatten_rec(inner, path, Some(name), out),
                }
            }
            Type::Struct(fields) => {
                for (fname, fty) in fields {
                    path.push(fname.clone());
                    self.flatten_rec(fty, path, None, out)?;
                    path.pop();
                }
                Ok(())
            }
        }
    }

    /// Total bit width of a type.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Unknown`] for undeclared names.
    pub fn width(&self, ty: &Type) -> Result<u32, TypeError> {
        Ok(self.flatten(ty)?.iter().map(|l| l.width).sum())
    }

    /// The type reached from `ty` by following the field `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Unknown`] if a name fails to resolve or if a
    /// path segment does not name a field of a struct.
    pub fn project(&self, ty: &Type, path: &[String]) -> Result<Type, TypeError> {
        let mut cur = ty.clone();
        for seg in path {
            let resolved = self.resolve(&cur)?.clone();
            let fields = match resolved {
                Type::Struct(fields) => fields,
                other => {
                    return Err(TypeError::Unknown(format!(
                        "field `{seg}` projected from non-struct type `{other}`"
                    )))
                }
            };
            cur = fields
                .iter()
                .find(|(name, _)| name == seg)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| TypeError::Unknown(format!("no field `{seg}`")))?;
        }
        Ok(cur)
    }

    /// Checks two types for structural equality after resolving names.
    pub fn same(&self, a: &Type, b: &Type) -> bool {
        match (self.flatten(a), self.flatten(b)) {
            (Ok(la), Ok(lb)) => {
                la.len() == lb.len()
                    && la
                        .iter()
                        .zip(&lb)
                        .all(|(x, y)| x.width == y.width && x.bound == y.bound && x.path == y.path)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_width_boundaries() {
        assert_eq!(range_width(1), 1);
        assert_eq!(range_width(2), 1);
        assert_eq!(range_width(3), 2);
        assert_eq!(range_width(4), 2);
        assert_eq!(range_width(5), 3);
        assert_eq!(range_width(256), 8);
        assert_eq!(range_width(257), 9);
    }

    #[test]
    fn declare_and_resolve() {
        let mut t = TypeTable::new();
        t.declare("PC", Type::Range(17)).unwrap();
        t.declare("Alias", Type::named("PC")).unwrap();
        let alias = Type::named("Alias");
        let r = t.resolve(&alias).unwrap();
        assert_eq!(r, &Type::Range(17));
    }

    #[test]
    fn duplicate_rejected() {
        let mut t = TypeTable::new();
        t.declare("X", Type::Bool).unwrap();
        assert_eq!(t.declare("X", Type::Bool), Err(TypeError::Duplicate("X".into())));
    }

    #[test]
    fn unknown_rejected() {
        let mut t = TypeTable::new();
        assert_eq!(t.declare("Y", Type::named("Nope")), Err(TypeError::Unknown("Nope".into())));
    }

    #[test]
    fn degenerate_rejected() {
        let mut t = TypeTable::new();
        assert!(matches!(t.declare("Z", Type::Range(0)), Err(TypeError::Degenerate(_))));
        assert!(matches!(t.declare("W", Type::Bits(0)), Err(TypeError::Degenerate(_))));
        assert!(matches!(t.declare("S", Type::Struct(vec![])), Err(TypeError::Degenerate(_))));
    }

    #[test]
    fn too_wide_rejected() {
        let mut t = TypeTable::new();
        t.declare("Max", Type::Bits(MAX_TYPE_BITS)).unwrap();
        assert_eq!(t.declare("S", Type::Bits(4_000_000_000)), Err(TypeError::TooWide("S".into())));
        let pair = Type::Struct(vec![("a".into(), Type::named("Max")), ("b".into(), Type::Bool)]);
        assert_eq!(t.declare("Pair", pair), Err(TypeError::TooWide("Pair".into())));
        // Doubling through named structs stops at the bound.
        t.declare("T0", Type::Bits(64)).unwrap();
        let mut last = 0;
        for i in 1..20 {
            let prev = Type::named(format!("T{}", i - 1));
            let ty = Type::Struct(vec![("a".into(), prev.clone()), ("b".into(), prev)]);
            if t.declare(format!("T{i}"), ty).is_err() {
                break;
            }
            last = i;
        }
        assert_eq!(t.width(&Type::named(format!("T{last}"))).unwrap(), 64 << last);
        assert!(64 << (last + 1) > MAX_TYPE_BITS);
    }

    #[test]
    fn flatten_struct_channels() {
        let mut t = TypeTable::new();
        t.declare("Module", Type::Range(3)).unwrap();
        t.declare("PC", Type::Range(17)).unwrap();
        t.declare("Local", Type::Bits(5)).unwrap();
        t.declare("Global", Type::Bits(3)).unwrap();
        t.declare(
            "Conf",
            Type::Struct(vec![
                ("mod".into(), Type::named("Module")),
                ("pc".into(), Type::named("PC")),
                ("cl".into(), Type::named("Local")),
                ("cg".into(), Type::named("Global")),
                ("ecl".into(), Type::named("Local")),
                ("ecg".into(), Type::named("Global")),
            ]),
        )
        .unwrap();
        let leaves = t.flatten(&Type::named("Conf")).unwrap();
        assert_eq!(leaves.len(), 6);
        assert_eq!(leaves[0].channel, "Module");
        assert_eq!(leaves[0].width, 2);
        assert_eq!(leaves[0].bound, Some(3));
        assert_eq!(leaves[1].channel, "PC");
        assert_eq!(leaves[1].path, vec!["pc".to_string()]);
        assert_eq!(leaves[2].channel, "Local");
        assert_eq!(leaves[2].width, 5);
        assert_eq!(leaves[4].channel, "Local");
        assert_eq!(leaves[4].path, vec!["ecl".to_string()]);
        assert_eq!(t.width(&Type::named("Conf")).unwrap(), 2 + 5 + 5 + 5 + 3 + 3);
    }

    #[test]
    fn nested_struct_paths() {
        let mut t = TypeTable::new();
        t.declare("Inner", Type::Struct(vec![("b".into(), Type::Bool)])).unwrap();
        t.declare(
            "Outer",
            Type::Struct(vec![("x".into(), Type::named("Inner")), ("y".into(), Type::Bool)]),
        )
        .unwrap();
        let leaves = t.flatten(&Type::named("Outer")).unwrap();
        assert_eq!(leaves[0].path, vec!["x".to_string(), "b".to_string()]);
        assert_eq!(leaves[1].path, vec!["y".to_string()]);
    }

    #[test]
    fn same_type_structural() {
        let mut t = TypeTable::new();
        t.declare("A", Type::Bits(4)).unwrap();
        t.declare("B", Type::named("A")).unwrap();
        assert!(t.same(&Type::named("A"), &Type::named("B")));
        assert!(!t.same(&Type::named("A"), &Type::Bits(5)));
    }
}
