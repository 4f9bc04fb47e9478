//! A raw lock in production code; the same lock in a test is exempt.

pub fn raw() {
    let m = std::sync::Mutex::new(0u32);
    drop(m);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_lock() {
        let _m = std::sync::Mutex::new(0u32);
    }
}
