//! Finite labeled vocabularies: the state, event and action sets of the
//! coherence machines, and the key space of [`CoverageGrid`](crate::CoverageGrid).

/// A finite, labeled vocabulary: the state, event, or action set of one
/// machine. Implemented via the [`alphabet!`](crate::alphabet) macro.
pub trait Alphabet: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Every member, in declaration order.
    const ALL: &'static [Self];

    /// Every member, in the byte order of its label: the order reports
    /// list coverage in, computed once, when the alphabet is compiled.
    const BY_LABEL: &'static [Self];

    /// Stable display label (used in dumps, coverage keys, golden files).
    fn label(self) -> &'static str;

    /// Dense index into [`Alphabet::ALL`].
    fn index(self) -> usize;
}

/// Whether no two members of `A` share a label. Labels key coverage and
/// reports, so two members with one label would merge silently there.
pub(crate) fn labels_distinct<A: Alphabet>() -> bool {
    let labels = A::ALL.iter().map(|a| a.label());
    labels
        .enumerate()
        .all(|(i, label)| A::ALL[..i].iter().all(|a| a.label() != label))
}

/// `items` reordered by the bytes of `labels` (`labels[i]` labels
/// `items[i]`); what [`alphabet!`](crate::alphabet) computes
/// [`Alphabet::BY_LABEL`] with. An insertion sort, since it runs in a
/// `const` and alphabets are a few dozen members.
#[doc(hidden)]
pub const fn sort_by_label<T: Copy, const N: usize>(
    mut items: [T; N],
    mut labels: [&str; N],
) -> [T; N] {
    const fn less(a: &str, b: &str) -> bool {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let mut i = 0;
        while i < a.len() && i < b.len() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
            i += 1;
        }
        a.len() < b.len()
    }
    let mut i = 1;
    while i < N {
        let mut j = i;
        while j > 0 && less(labels[j], labels[j - 1]) {
            let (item, label) = (items[j], labels[j]);
            items[j] = items[j - 1];
            labels[j] = labels[j - 1];
            items[j - 1] = item;
            labels[j - 1] = label;
            j -= 1;
        }
        i += 1;
    }
    items
}

/// Declares a fieldless enum implementing [`Alphabet`].
///
/// Variants label themselves with their own name unless an explicit label
/// is given (useful for labels that are not valid identifiers):
///
/// ```rust
/// xg_sim::alphabet! {
///     /// Directory states.
///     pub enum DirState {
///         /// Memory owns the block.
///         Omem = "O_mem",
///         Owned,
///     }
/// }
/// assert_eq!(xg_sim::Alphabet::label(DirState::Omem), "O_mem");
/// assert_eq!(xg_sim::Alphabet::label(DirState::Owned), "Owned");
/// ```
#[macro_export]
macro_rules! alphabet {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vmeta:meta])*
                $Var:ident $(= $label:literal)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $Var
            ),+
        }

        impl $crate::Alphabet for $Name {
            const ALL: &'static [Self] = &[$(Self::$Var),+];

            const BY_LABEL: &'static [Self] = &$crate::sort_by_label(
                [$(Self::$Var),+],
                [$($crate::alphabet_label!($Var $(, $label)?)),+],
            );

            fn label(self) -> &'static str {
                match self {
                    $(Self::$Var => $crate::alphabet_label!($Var $(, $label)?)),+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Helper for [`alphabet!`]: picks the explicit label or the variant name.
#[doc(hidden)]
#[macro_export]
macro_rules! alphabet_label {
    ($Var:ident) => {
        stringify!($Var)
    };
    ($Var:ident, $label:literal) => {
        $label
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::alphabet! { enum Fine { A, B = "b", C = "A_" } }
    crate::alphabet! { enum Clash { A, B = "A" } }

    #[test]
    fn labels_default_to_the_variant_name_and_index_declaration_order() {
        assert_eq!(Fine::ALL, [Fine::A, Fine::B, Fine::C]);
        let labels: Vec<_> = Fine::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["A", "b", "A_"]);
        let indices: Vec<_> = Fine::ALL.iter().map(|a| a.index()).collect();
        assert_eq!(indices, [0, 1, 2]);
    }

    #[test]
    fn by_label_is_every_member_in_label_byte_order() {
        crate::alphabet! { enum Mixed { Z, M = "M_dirty", I, S = "I.S", Is = "IS", Lower = "a", Last = "M" } }
        let labels: Vec<_> = Mixed::BY_LABEL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["I", "I.S", "IS", "M", "M_dirty", "Z", "a"]);
        assert_eq!(Fine::BY_LABEL, [Fine::A, Fine::C, Fine::B]);
    }

    #[test]
    fn a_shared_label_is_detected() {
        assert!(labels_distinct::<Fine>());
        assert!(!labels_distinct::<Clash>());
    }
}
