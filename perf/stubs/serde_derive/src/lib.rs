//! Offline stand-in for `serde_derive`. The benchmark never serializes
//! through serde, so both derives accept their `#[serde(..)]` helper
//! attributes and expand to nothing; the blanket impls in the `serde`
//! stand-in keep every `T: Serialize` bound satisfied.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
