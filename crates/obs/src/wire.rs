//! How the schema is declared: the [`WireField`] trait that teaches a
//! Rust type its place on a `run_metrics.jsonl` line, and the table
//! macros `vocab!` (a closed string set) and `events!` (the event
//! kinds) that `event.rs` invokes. Everything that has to agree about
//! a kind or a vocabulary value — variant, wire name, encoder, decoder,
//! Prometheus label, test samples — is generated from its one table
//! entry, so none of them can be left out.

use std::fmt::Write as _;

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Str(String),
    Num(f64),
    Null,
}

/// A type that can be one field of an event line.
pub(crate) trait WireField: Sized {
    /// What a value of the field must be, as validation errors spell
    /// it (`field "depth" must be a non-negative integer`).
    const EXPECTS: &'static str;

    /// Appends `key` (pre-formatted as `,"name":`) and the value. An
    /// absent optional appends nothing: optional fields are omitted,
    /// never `null`.
    fn push_field(&self, key: &'static str, out: &mut String);

    /// Reads the field back from a parsed value; `None` if the value
    /// has the wrong type or is outside the vocabulary.
    fn from_value(value: &Value) -> Option<Self>;

    /// What a line that omits the field decodes to. `None` — the
    /// default — makes the field required.
    fn absent() -> Option<Self> {
        None
    }
}

macro_rules! uint_field {
    ($($ty:ty),+) => {$(
        impl WireField for $ty {
            const EXPECTS: &'static str = "a non-negative integer";

            fn push_field(&self, key: &'static str, out: &mut String) {
                out.push_str(key);
                let _ = write!(out, "{self}");
            }

            fn from_value(value: &Value) -> Option<Self> {
                match value {
                    Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {
                        <$ty>::try_from(*n as u64).ok()
                    }
                    _ => None,
                }
            }
        }
    )+};
}
uint_field!(u64, usize, u32);

impl WireField for f64 {
    const EXPECTS: &'static str = "a number or null";

    /// Finite values use Rust's shortest round-trip `Display`;
    /// non-finite values (which valid metrics never produce, but a
    /// defensive encoder must not emit as bare words JSON rejects)
    /// become `null`.
    fn push_field(&self, key: &'static str, out: &mut String) {
        out.push_str(key);
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            Value::Str(_) => None,
        }
    }
}

/// Appends `key` and `text` in quotes. Strings go out unescaped: the
/// schema's free strings are socket addresses and hex epochs, and kind
/// and vocabulary names are identifiers — none contains a character
/// JSON would escape.
pub(crate) fn push_quoted(key: &'static str, text: &str, out: &mut String) {
    out.push_str(key);
    out.push('"');
    out.push_str(text);
    out.push('"');
}

impl WireField for String {
    const EXPECTS: &'static str = "a string";

    fn push_field(&self, key: &'static str, out: &mut String) {
        push_quoted(key, self, out);
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl<T: WireField> WireField for Option<T> {
    const EXPECTS: &'static str = T::EXPECTS;

    fn push_field(&self, key: &'static str, out: &mut String) {
        if let Some(value) = self {
            value.push_field(key, out);
        }
    }

    /// An optional float the encoder wrote as `null` (it was
    /// non-finite) reads back as absent.
    fn from_value(value: &Value) -> Option<Self> {
        T::from_value(value).map(|v| (*value != Value::Null).then_some(v))
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// The fields of one parsed line, as a kind's decoder sees them.
pub(crate) struct Fields<'a> {
    /// The line's (already recognised) kind, for error messages.
    pub kind: &'static str,
    /// Key/value pairs in line order.
    pub pairs: &'a [(String, Value)],
}

impl Fields<'_> {
    /// Decodes field `key`, which `within` (when given) further
    /// restricts to a closed set of strings; the error says whether it
    /// was missing, ill-typed, or outside its vocabulary.
    pub(crate) fn take<T: WireField>(
        &self,
        key: &str,
        within: Option<&[&str]>,
    ) -> Result<T, String> {
        let Some((_, value)) = self.pairs.iter().find(|(k, _)| k == key) else {
            return T::absent()
                .ok_or_else(|| format!("kind {:?} missing field {key:?}", self.kind));
        };
        let refused = |s: &str| format!("field {key:?} has unknown value {s:?}");
        match (T::from_value(value), value) {
            (Some(_), Value::Str(s)) if within.is_some_and(|w| !w.contains(&s.as_str())) => {
                Err(refused(s))
            }
            (Some(decoded), _) => Ok(decoded),
            // A string offered to a string field is only ever refused
            // for what it says.
            (None, Value::Str(s)) if T::EXPECTS == String::EXPECTS => Err(refused(s)),
            (None, _) => Err(format!("field {key:?} must be {}", T::EXPECTS)),
        }
    }
}

/// Whether a healthy, default-configured run emits a kind.
#[derive(Clone, Copy)]
pub(crate) enum KindClass {
    /// Every run, on every engine.
    Always,
    /// Only on fault and recovery paths.
    Fault,
    /// Only under some run configuration (a precision target, a
    /// socket transport, span tracing).
    Conditional,
}

/// What the validator needs to know about one event kind.
pub(crate) struct KindSpec {
    /// The `"kind"` discriminator.
    pub name: &'static str,
    pub class: KindClass,
    /// The kind's own field names, in wire order.
    pub fields: &'static [&'static str],
    /// Builds the payload from a parsed line.
    pub decode: fn(&Fields<'_>) -> Result<crate::event::EventKind, String>,
}

/// Declares a closed string vocabulary once: the enum, its wire names
/// (`as_str` / `from_str_opt` / `ALL`), its `WireField` codec and —
/// with `series("family", "label")` — the static Prometheus series
/// name of each value, so hot events never allocate a label string.
macro_rules! vocab {
    (@series $Name:ident [] $($rest:tt)+) => {};
    (@series $Name:ident [$family:literal, $label:literal] $($Variant:ident = $wire:literal),+) => {
        impl $Name {
            /// The metric series that carries this value as its label.
            pub(crate) fn series(self) -> &'static str {
                match self {
                    $(Self::$Variant => concat!($family, "{", $label, "=\"", $wire, "\"}"),)+
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $Name:ident $(series($family:literal, $label:literal))? {
            $($(#[$vmeta:meta])* $Variant:ident = $wire:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Name {
            $($(#[$vmeta])* $Variant,)+
        }

        impl $Name {
            /// Every wire name, in schema order.
            pub const ALL: [&'static str; [$($wire),+].len()] = [$($wire),+];

            /// The wire name of the value.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Self::$Variant => $wire,)+
                }
            }

            /// Parses a wire name back into the value.
            #[must_use]
            pub fn from_str_opt(s: &str) -> Option<Self> {
                match s {
                    $($wire => Some(Self::$Variant),)+
                    _ => None,
                }
            }
        }

        $crate::wire::vocab!(@series $Name [$($family, $label)?] $($Variant = $wire),+);

        impl $crate::wire::WireField for $Name {
            const EXPECTS: &'static str = <String as $crate::wire::WireField>::EXPECTS;

            fn push_field(&self, key: &'static str, out: &mut String) {
                $crate::wire::push_quoted(key, self.as_str(), out);
            }

            fn from_value(value: &$crate::wire::Value) -> Option<Self> {
                match value {
                    $crate::wire::Value::Str(s) => Self::from_str_opt(s),
                    _ => None,
                }
            }
        }

        #[cfg(test)]
        impl $crate::wire::sample::Sample for $Name {
            const VOCAB: &'static [&'static str] = &Self::ALL;
        }
    };
}
pub(crate) use vocab;

/// Declares the event kinds once. Each entry is a variant, its wire
/// name, its `KindClass`, and its fields in wire order with their
/// Rust types (`name in VOCAB: String` restricts a string field to the
/// constant `VOCAB`; the macro spells that `None.or(Some(VOCAB))`).
/// Generates the `EventKind` enum, `name()`, `ALL_KINDS`, the field
/// encoder, the `KINDS` table the validator walks, and test samples.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident {
            $(
                $(#[$kmeta:meta])*
                $Variant:ident = $name:literal, $class:ident {
                    $($(#[$fmeta:meta])* $field:ident $(in $vocab:ident)?: $ty:ty,)+
                },
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $Enum {
            $(
                $(#[$kmeta])*
                $Variant {
                    $($(#[$fmeta])* $field: $ty,)+
                },
            )+
        }

        impl $Enum {
            /// Every kind name, in schema order.
            pub const ALL_KINDS: [&'static str; KINDS.len()] = [$($name),+];

            /// The wire name of the kind (the `"kind"` field).
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$Variant { .. } => $name,)+
                }
            }

            /// Appends the kind's own fields, in wire order.
            pub(crate) fn push_fields(&self, out: &mut String) {
                use $crate::wire::WireField as _;
                match self {
                    $(Self::$Variant { $($field),+ } => {
                        $($field.push_field(concat!(",\"", stringify!($field), "\":"), out);)+
                    })+
                }
            }
        }

        /// The schema as data, one entry per kind in schema order.
        pub(crate) const KINDS: [$crate::wire::KindSpec; [$($name),+].len()] = [$(
            $crate::wire::KindSpec {
                name: $name,
                class: $crate::wire::KindClass::$class,
                fields: &[$(stringify!($field)),+],
                decode: |fields| {
                    Ok($Enum::$Variant {
                        $($field: fields
                            .take(stringify!($field), None$(.or(Some($vocab)))?)?,)+
                    })
                },
            },
        )+];

        /// Generated samples of every kind, in schema order.
        #[cfg(test)]
        pub(crate) fn samples() -> Vec<$crate::wire::sample::KindSamples> {
            use $crate::wire::sample;
            vec![$(sample::kind(
                $name,
                vec![$((stringify!($field), sample::vocab_of::<$ty>(None$(.or(Some($vocab)))?)),)+],
                |row, fields| {
                    let mut fields = fields.iter().zip(1..);
                    $(let $field = sample::next(row, &mut fields);)+
                    $Enum::$Variant { $($field),+ }
                },
            ),)+]
        }
    };
}
pub(crate) use events;

/// Test support: the populated values the `samples()` that `events!`
/// generates is built from.
#[cfg(test)]
pub(crate) mod sample {
    use super::{Value, WireField};
    use crate::event::EventKind;

    pub(crate) type Vocab = &'static [&'static str];

    /// One kind's samples: its fields with their vocabularies, and
    /// enough populated payloads that every vocabulary value of every
    /// field occurs. Row 0 carries the required fields only, row 1
    /// every optional.
    pub(crate) struct KindSamples {
        pub name: &'static str,
        pub fields: Vec<(&'static str, Vocab)>,
        pub rows: Vec<EventKind>,
    }

    /// A field type that can populate a sample.
    pub(crate) trait Sample: WireField {
        /// The closed set of strings the type may carry; empty for
        /// numbers and free strings.
        const VOCAB: Vocab = &[];

        /// A value that walks `vocab` as `row` grows — or, when that
        /// is empty, one distinct per `salt` (the field's position in
        /// its kind). Row 0 leaves every optional absent.
        fn sample(row: usize, _salt: u64, vocab: Vocab) -> Self {
            let name = vocab[row % vocab.len()].to_string();
            Self::from_value(&Value::Str(name)).expect("a name of the vocabulary")
        }
    }

    impl Sample for u64 {
        fn sample(row: usize, salt: u64, _: Vocab) -> Self {
            salt * 10 + row as u64
        }
    }

    impl Sample for usize {
        fn sample(row: usize, salt: u64, vocab: Vocab) -> Self {
            u64::sample(row, salt, vocab) as usize
        }
    }

    impl Sample for u32 {
        fn sample(row: usize, salt: u64, vocab: Vocab) -> Self {
            u64::sample(row, salt, vocab) as u32
        }
    }

    impl Sample for f64 {
        fn sample(row: usize, salt: u64, _: Vocab) -> Self {
            salt as f64 + 0.25 * (row + 1) as f64
        }
    }

    /// A free string (an address) unless the table restricts the field.
    impl Sample for String {
        fn sample(row: usize, salt: u64, vocab: Vocab) -> Self {
            match vocab.get(row % vocab.len().max(1)) {
                Some(name) => name.to_string(),
                None => format!("10.0.{salt}.{row}:4915{salt}"),
            }
        }
    }

    impl<T: Sample> Sample for Option<T> {
        const VOCAB: Vocab = T::VOCAB;

        fn sample(row: usize, salt: u64, vocab: Vocab) -> Self {
            (row > 0).then(|| T::sample(row, salt, vocab))
        }
    }

    /// A field's vocabulary: the table's `in` restriction if it has
    /// one, else its type's.
    pub(crate) fn vocab_of<T: Sample>(within: Option<Vocab>) -> Vocab {
        within.unwrap_or(T::VOCAB)
    }

    /// The next field of a row, from the kind's `(field, vocabulary)`
    /// list zipped with the salts.
    pub(crate) fn next<'a, T: Sample>(
        row: usize,
        fields: &mut impl Iterator<Item = (&'a (&'static str, Vocab), u64)>,
    ) -> T {
        let ((_, vocab), salt) = fields.next().expect("one entry per field");
        T::sample(row, salt, vocab)
    }

    /// Builds a kind's rows: one more than its widest vocabulary, so
    /// that an optional field walks all of its own too, and never
    /// fewer than the two forms.
    pub(crate) fn kind(
        name: &'static str,
        fields: Vec<(&'static str, Vocab)>,
        row: impl Fn(usize, &[(&'static str, Vocab)]) -> EventKind,
    ) -> KindSamples {
        let widest = fields.iter().map(|(_, vocab)| vocab.len()).max();
        let rows = (0..=widest.unwrap_or(0).max(1))
            .map(|r| row(r, &fields))
            .collect();
        KindSamples { name, fields, rows }
    }
}
