//! Generic subsequence tests.
//!
//! Section 4.3 reduces temporal subgraph tests to subsequence tests over sequence
//! encodings of the graphs; these helpers implement the plain (greedy, linear-time)
//! subsequence relation `⊑` used there.

/// Returns whether `needle` is a subsequence of `haystack` (elements in order, not
/// necessarily contiguous). Runs in `O(|haystack|)`.
pub fn is_subsequence<T: PartialEq>(needle: &[T], haystack: &[T]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut it = needle.iter();
    let mut current = it.next();
    for item in haystack {
        match current {
            None => return true,
            Some(c) if c == item => current = it.next(),
            Some(_) => {}
        }
    }
    current.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_needle_is_always_a_subsequence() {
        assert!(is_subsequence::<u32>(&[], &[]));
        assert!(is_subsequence(&[], &[1, 2, 3]));
    }

    #[test]
    fn detects_positive_cases() {
        assert!(is_subsequence(&[1, 3], &[1, 2, 3]));
        assert!(is_subsequence(&[1, 2, 3], &[1, 2, 3]));
        assert!(is_subsequence(&['a', 'c'], &['a', 'b', 'c', 'd']));
    }

    #[test]
    fn detects_negative_cases() {
        assert!(!is_subsequence(&[3, 1], &[1, 2, 3]));
        assert!(!is_subsequence(&[1, 1], &[1, 2, 3]));
        assert!(!is_subsequence(&[1, 2, 3, 4], &[1, 2, 3]));
    }
}
