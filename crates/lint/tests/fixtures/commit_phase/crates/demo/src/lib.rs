// Commit-phase fixture. `submit_journal` is allowlisted; every other raw
// device write must be flagged, while test code stays exempt.
pub struct Dev;

pub fn submit_journal(dev: &mut Dev) {
    dev.write_blocks(7, &[b"journal record"]); // licensed
}

pub fn rogue_flip(dev: &mut Dev) {
    dev.write_blocks(0, &[b"superblock"]); // line 10: bypasses the protocol
}

pub fn rogue_extent(dev: &mut Dev, sizes: [u8; 4]) {
    let _ = sizes;
    let run = || dev.write_blocks(9, &[]); // line 15: closures inherit the fn
    run();
}

pub fn sneaky_repair(dev: &mut Dev) {
    let _ = dev.repair_block(3); // line 20
}

pub fn rogue_free(dev: &mut Dev) {
    dev.discard(5, 1); // line 24: a discard changes what the medium holds
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let mut d = super::Dev;
        d.write_blocks(1, &[b"test code may poke the device"]);
    }
}
