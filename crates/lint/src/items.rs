//! The item skeleton the semantic rules operate on.
//!
//! [`crate::parser`] recovers this — structs with their named fields,
//! enums with their variants, functions (free and `impl`-owned) with the
//! identifier set their bodies mention, and `impl`-level constants — from
//! the token stream. It is deliberately *not* a Rust AST: the semantic
//! rules only ever ask "does this body mention that name?", so a body is
//! stored as a sorted, deduplicated identifier set.

/// A named struct field or enum variant, with its declaration line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The field or variant name.
    pub name: String,
    /// 1-based line of the declaration (where an allow-directive must sit).
    pub line: usize,
}

/// A struct with named fields. Tuple and unit structs are not recorded —
/// no semantic rule can reason about unnamed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// True if the item sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Named fields in declaration order.
    pub fields: Vec<Field>,
}

/// An enum with its variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// True if the item sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Variants in declaration order (payloads are not modelled).
    pub variants: Vec<Field>,
}

/// A function — free, or a method/associated function of `owner`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The `impl` type the function belongs to (`None` for free functions).
    /// For `impl Trait for Type`, this is `Type`.
    pub owner: Option<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True if the item sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Sorted, deduplicated identifiers the body mentions. Empty for
    /// bodiless declarations (trait methods are skipped entirely).
    pub body_idents: Vec<String>,
}

impl FnItem {
    /// True if the body mentions identifier `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.body_idents
            .binary_search_by(|x| x.as_str().cmp(name))
            .is_ok()
    }
}

/// An `impl`-level or module-level constant, with the identifiers its
/// initializer expression mentions (e.g. the variants listed in
/// `RpcOp::ALL`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstItem {
    /// The `impl` type the constant belongs to (`None` at module level).
    pub owner: Option<String>,
    /// The constant's name.
    pub name: String,
    /// 1-based line of the `const` keyword.
    pub line: usize,
    /// True if the item sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Sorted, deduplicated identifiers of the initializer expression.
    pub value_idents: Vec<String>,
}

impl ConstItem {
    /// True if the initializer mentions identifier `name`.
    pub fn mentions(&self, name: &str) -> bool {
        self.value_idents
            .binary_search_by(|x| x.as_str().cmp(name))
            .is_ok()
    }
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// Structs with named fields.
    pub structs: Vec<StructItem>,
    /// Enums.
    pub enums: Vec<EnumItem>,
    /// Functions with bodies.
    pub fns: Vec<FnItem>,
    /// Constants with initializers.
    pub consts: Vec<ConstItem>,
}

impl FileItems {
    /// True if nothing was recovered (the file defines no items the
    /// semantic rules could care about).
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
            && self.enums.is_empty()
            && self.fns.is_empty()
            && self.consts.is_empty()
    }
}
