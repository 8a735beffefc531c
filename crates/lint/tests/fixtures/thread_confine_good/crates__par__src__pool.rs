pub fn for_each(items: &mut [u8]) {
    let queue = std::sync::Mutex::new(items.iter_mut());
    std::thread::scope(|scope| {
        scope.spawn(|| while let Some(item) = next(&queue) {
            *item += 1;
        });
    });
}
